package replay_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"golisa/internal/core"
	"golisa/internal/replay"
	"golisa/internal/sim"
)

const replayDotKernel = `
        LDI B1, 1
        LDI A8, 16        ; count
        LDI A4, 0         ; &a
        LDI A5, 100       ; &b
        CLRACC
loop:   LD  A6, A4, 0
        LD  A7, A5, 0
        ADD A4, A4, B1
        MAC A6, A7
        ADD A5, A5, B1
        SUB A8, A8, B1
        BNZ A8, loop
        NOP
        NOP
        SAT A0
        ST  A0, B0, 200
        HALT
`

const replaySimdKernel = `
        LDI R1, 100       ; &a
        LDI R2, 150       ; &b
        LDI R4, 4         ; chunk count
        VCLR
loop:   VLD V0, R1, 0
        VLD V1, R2, 0
        VMAC V0, V1
        ADDI R1, 4
        ADDI R2, 4
        ADDI R4, -1
        BNZ R4, loop
        NOP               ; branch delay slot
        VSAT V7
        VRED R10, V7
        HALT
`

const replayC62xKernel = `
    MVK .S1 A1, 6
    MVK .S1 A2, 7
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
    ADD .L1 A3, A1, A2
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
    MPY .M1 A4, A1, A2
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
    NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
    NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
    IDLE
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
    NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
`

type recCase struct {
	model  string
	kernel string
	seed   func(t *testing.T, s *sim.Simulator)
}

func recCases() []recCase {
	seedSimple := func(t *testing.T, s *sim.Simulator) {
		t.Helper()
		for i := 0; i < 16; i++ {
			if err := s.SetMem("data_mem", uint64(i), uint64(i+1)); err != nil {
				t.Fatal(err)
			}
			if err := s.SetMem("data_mem", uint64(100+i), uint64(2*i+3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	seedSimd := func(t *testing.T, s *sim.Simulator) {
		t.Helper()
		for i := 0; i < 16; i++ {
			_ = s.SetMem("data_mem", uint64(100+i), uint64(i+1))
			_ = s.SetMem("data_mem", uint64(150+i), uint64(3*i+2))
		}
	}
	return []recCase{
		{"simple16", replayDotKernel, seedSimple},
		{"simd16", replaySimdKernel, seedSimd},
		{"c62x", replayC62xKernel, nil},
	}
}

// recordRun records a full run to halt and returns the recording bytes
// plus the per-cycle state hashes of the original run.
func recordRun(t *testing.T, c recCase, mode sim.Mode, opts replay.Options,
	perStep func(s *sim.Simulator, step uint64)) ([]byte, []uint64) {
	t.Helper()
	mach, err := core.LoadBuiltin(c.model)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := mach.AssembleAndLoad(c.kernel, mode)
	if err != nil {
		t.Fatal(err)
	}
	if c.seed != nil {
		c.seed(t, s)
	}
	var buf bytes.Buffer
	rec := replay.NewRecorder(s, mach.Source, &buf, opts)
	s.SetObserver(rec)
	var hashes []uint64
	for !s.Halted() && s.Step() < 2000 {
		hashes = append(hashes, s.StateHash())
		if err := s.RunStep(); err != nil {
			t.Fatal(err)
		}
		if perStep != nil {
			perStep(s, s.Step())
		}
	}
	if !s.Halted() {
		t.Fatal("run did not halt")
	}
	hashes = append(hashes, s.StateHash())
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), hashes
}

func TestRecordReplayGotoAllModels(t *testing.T) {
	for _, c := range recCases() {
		c := c
		t.Run(c.model, func(t *testing.T) {
			data, hashes := recordRun(t, c, sim.Compiled, replay.Options{Every: 16}, nil)
			rec, err := replay.Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			total := uint64(len(hashes) - 1)
			if rec.FinalStep != total {
				t.Fatalf("FinalStep = %d, original ran %d cycles", rec.FinalStep, total)
			}
			if !rec.Complete || !rec.Halted {
				t.Fatalf("recording complete=%v halted=%v, want both true", rec.Complete, rec.Halted)
			}
			r, err := replay.NewReplayer(rec)
			if err != nil {
				t.Fatal(err)
			}
			// Forward, backward, exact-checkpoint and final-cycle jumps.
			for _, cycle := range []uint64{0, total / 2, 3, 16, total - 1, total, 1} {
				if err := r.Goto(cycle); err != nil {
					t.Fatalf("Goto(%d): %v", cycle, err)
				}
				if r.Step() != cycle {
					t.Fatalf("Goto(%d) landed on cycle %d", cycle, r.Step())
				}
				if got := r.Sim.StateHash(); got != hashes[cycle] {
					t.Fatalf("cycle %d: replayed state hash %#x, original %#x", cycle, got, hashes[cycle])
				}
			}
			if r.EventsChecked() == 0 {
				t.Fatal("replay cross-checked no events")
			}
			if err := r.Goto(total + 1); err == nil {
				t.Fatal("Goto beyond recording end succeeded")
			}
		})
	}
}

func TestVerifyFullRecording(t *testing.T) {
	for _, name := range []string{"interpretive", "compiled", "compiled+prebound"} {
		mode, _ := sim.ParseMode(name)
		t.Run(name, func(t *testing.T) {
			c := recCases()[0]
			data, hashes := recordRun(t, c, mode, replay.Options{Every: 32}, nil)
			rec, err := replay.Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			r, err := replay.NewReplayer(rec)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := r.Verify()
			if err != nil {
				t.Fatalf("verify: %v", err)
			}
			if rep.Final != uint64(len(hashes)-1) || !rep.Halted {
				t.Fatalf("verify ended at cycle %d halted=%v, want %d/true", rep.Final, rep.Halted, len(hashes)-1)
			}
			if rep.Events == 0 || rep.Hashes == 0 {
				t.Fatalf("verify checked %d events, %d hashes; want both > 0", rep.Events, rep.Hashes)
			}
		})
	}
}

// TestHeaderModeByte pins the header's mode byte across the engine
// collapse: byte 2, written by the closure engine under its old name
// "compiled+prebound" and by sim.Compiled today, loads, replays and
// verifies; byte 1, the retired decode-cache-only engine, and unknown
// bytes fail to load with an error naming the mode.
func TestHeaderModeByte(t *testing.T) {
	c := recCases()[0]
	data, _ := recordRun(t, c, sim.Compiled, replay.Options{Every: 32}, nil)
	mach, err := core.LoadBuiltin(c.model)
	if err != nil {
		t.Fatal(err)
	}
	// Header: magic, uvarint version, model name and source as
	// length-prefixed strings, then the mode byte.
	at := len("LREC1") + 1
	for _, str := range []string{mach.Model.Name, mach.Source} {
		at += len(binary.AppendUvarint(nil, uint64(len(str)))) + len(str)
	}
	if data[at] != 2 {
		t.Fatalf("mode byte = %d, want 2", data[at])
	}
	rec, err := replay.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	r, err := replay.NewReplayer(rec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sim.Mode() != sim.Compiled {
		t.Fatalf("replayer mode = %v, want compiled", r.Sim.Mode())
	}
	if _, err := r.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	for _, tc := range []struct {
		b    byte
		want string
	}{{1, `decode-cache-only "compiled" engine`}, {9, "unknown simulation mode 9"}} {
		bad := append([]byte(nil), data...)
		bad[at] = tc.b
		if _, err := replay.Parse(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("mode byte %d: err = %v, want it to mention %q", tc.b, err, tc.want)
		}
	}
}

// TestReplayExternalInputs records a run with out-of-step pokes (a device
// writing a scalar and a register-file element between cycles) and checks
// replay re-injects them: the 'cycles' counter is incremented by the model
// every step, so a missed poke would shift every later state hash.
func TestReplayExternalInputs(t *testing.T) {
	c := recCases()[0]
	poke := func(s *sim.Simulator, step uint64) {
		if step == 7 {
			if err := s.SetScalar("cycles", 1000); err != nil {
				t.Fatal(err)
			}
		}
		if step == 13 {
			if err := s.SetMem("A", 9, 0x55); err != nil {
				t.Fatal(err)
			}
		}
	}
	data, hashes := recordRun(t, c, sim.Compiled, replay.Options{Every: 64}, poke)
	rec, err := replay.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.InputCount != 2 {
		t.Fatalf("recorded %d inputs, want 2", rec.InputCount)
	}
	r, err := replay.NewReplayer(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Verify(); err != nil {
		t.Fatalf("verify with inputs: %v", err)
	}
	for _, cycle := range []uint64{8, 14, uint64(len(hashes) - 1)} {
		if err := r.Goto(cycle); err != nil {
			t.Fatal(err)
		}
		if got := r.Sim.StateHash(); got != hashes[cycle] {
			t.Fatalf("cycle %d: hash %#x, want %#x (input not re-injected?)", cycle, got, hashes[cycle])
		}
	}
	if v, err := r.Sim.Mem("A", 9); err != nil || v.Uint() != 0x55 {
		t.Fatalf("A[9] = %v (%v), want 0x55", v, err)
	}
}

func TestTruncatedRecordingStillReplays(t *testing.T) {
	c := recCases()[0]
	data, hashes := recordRun(t, c, sim.Compiled, replay.Options{Every: 8}, nil)
	rec, err := replay.Parse(data[:len(data)*6/10])
	if err != nil {
		t.Fatalf("truncated recording did not parse: %v", err)
	}
	if rec.Complete {
		t.Fatal("truncated recording claims to be complete")
	}
	if rec.FinalStep == 0 || len(rec.Checkpoints) == 0 {
		t.Fatalf("truncated recording recovered nothing (final=%d, %d checkpoints)", rec.FinalStep, len(rec.Checkpoints))
	}
	r, err := replay.NewReplayer(rec)
	if err != nil {
		t.Fatal(err)
	}
	target := rec.FinalStep / 2
	if err := r.Goto(target); err != nil {
		t.Fatal(err)
	}
	if got := r.Sim.StateHash(); got != hashes[target] {
		t.Fatalf("cycle %d: hash %#x, want %#x", target, got, hashes[target])
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := replay.Parse([]byte("not a recording")); err == nil {
		t.Fatal("garbage parsed as recording")
	}
	if _, err := replay.Parse([]byte("LREC1")); err == nil {
		t.Fatal("bare magic parsed as recording")
	}
	c := recCases()[0]
	data, _ := recordRun(t, c, sim.Compiled, replay.Options{}, nil)
	if _, err := replay.Parse(data[:8]); err == nil {
		t.Fatal("cut-off header parsed as recording")
	}
	if _, err := replay.Open(filepath.Join(t.TempDir(), "missing.lrec")); err == nil {
		t.Fatal("opening a missing file succeeded")
	}
}

func TestCorruptCheckpointDetected(t *testing.T) {
	c := recCases()[0]
	data, _ := recordRun(t, c, sim.Compiled, replay.Options{Every: 1 << 20}, nil)
	rec, err := replay.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Checkpoints) != 1 {
		t.Fatalf("want exactly 1 checkpoint, got %d", len(rec.Checkpoints))
	}
	// Flip a byte inside the checkpoint body (well past the record header)
	// and re-parse: building a replayer must fail the snapshot hash check
	// (or the corruption must already break the scan/decode).
	corrupt := append([]byte(nil), data...)
	corrupt[rec.CheckpointOffset(0)+40] ^= 0xff
	rec2, err := replay.Parse(corrupt)
	if err != nil || len(rec2.Checkpoints) == 0 {
		return
	}
	if _, err := replay.NewReplayer(rec2); err == nil {
		t.Fatal("corrupt checkpoint passed hash verification")
	}
}

func TestDiffEqualAndDiverging(t *testing.T) {
	c := recCases()[0]
	a, _ := recordRun(t, c, sim.Compiled, replay.Options{Every: 16}, nil)
	b, _ := recordRun(t, c, sim.Compiled, replay.Options{Every: 64}, nil)
	recA, err := replay.Parse(a)
	if err != nil {
		t.Fatal(err)
	}
	recB, err := replay.Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	// Identical runs with different checkpoint cadences must compare equal.
	if res := replay.Diff(recA, recB, 4); !res.Equal {
		t.Fatalf("identical runs diff as diverged: %s\n A: %s\n B: %s", res.Reason, res.A, res.B)
	}

	// A different data seed makes the loaded values — and then the MAC
	// results — differ: the diff must pinpoint a divergence and extract
	// event windows from both sides.
	c2 := c
	c2.seed = func(t *testing.T, s *sim.Simulator) {
		t.Helper()
		for i := 0; i < 16; i++ {
			_ = s.SetMem("data_mem", uint64(i), uint64(i+1))
			_ = s.SetMem("data_mem", uint64(100+i), uint64(2*i+4)) // differs
		}
	}
	d, _ := recordRun(t, c2, sim.Compiled, replay.Options{Every: 16}, nil)
	recD, err := replay.Parse(d)
	if err != nil {
		t.Fatal(err)
	}
	res := replay.Diff(recA, recD, 3)
	if res.Equal {
		t.Fatal("diverging runs compared equal")
	}
	if len(res.WindowA) == 0 || len(res.WindowB) == 0 {
		t.Fatal("divergence windows are empty")
	}
	var out strings.Builder
	res.Dump(&out)
	if !strings.Contains(out.String(), "diverge") {
		t.Fatalf("dump does not mention divergence:\n%s", out.String())
	}
}

func TestRecorderLiveAccessors(t *testing.T) {
	c := recCases()[0]
	mach, err := core.LoadBuiltin(c.model)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := mach.AssembleAndLoad(c.kernel, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	c.seed(t, s)
	var buf bytes.Buffer
	rec := replay.NewRecorder(s, mach.Source, &buf, replay.Options{Every: 8, Keep: 3})
	s.SetObserver(rec)
	for i := 0; i < 40 && !s.Halted(); i++ {
		if err := s.RunStep(); err != nil {
			t.Fatal(err)
		}
		if s.Step() == 10 {
			_ = s.SetScalar("cycles", 500)
		}
	}
	if rec.HighWater() != s.Step() {
		t.Fatalf("high water %d, simulator at %d", rec.HighWater(), s.Step())
	}
	cks := rec.Checkpoints()
	if len(cks) == 0 || len(cks) > 3 {
		t.Fatalf("kept %d checkpoints, want 1..3", len(cks))
	}
	if cks[0].Step != 0 {
		t.Fatalf("initial checkpoint dropped (first kept is step %d)", cks[0].Step)
	}
	ck, ok := rec.Nearest(9)
	if !ok || ck.Step > 9 {
		t.Fatalf("Nearest(9) = %v,%v", ck.Step, ok)
	}
	ins := rec.InputRange(0, s.Step())
	if len(ins) != 1 || ins[0].Resource != "cycles" || ins[0].Value != 500 {
		t.Fatalf("InputRange = %+v, want one cycles=500 input", ins)
	}
	if len(rec.TailEvents()) == 0 {
		t.Fatal("tail ring is empty")
	}
	// Flush without Close yields a valid partial recording.
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	partial, err := replay.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if partial.Complete {
		t.Fatal("flushed-but-unclosed recording claims completeness")
	}
	if partial.FinalStep == 0 {
		t.Fatal("partial recording lost all steps")
	}
}

func TestCreateWritesFile(t *testing.T) {
	c := recCases()[0]
	mach, err := core.LoadBuiltin(c.model)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := mach.AssembleAndLoad(c.kernel, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	c.seed(t, s)
	path := filepath.Join(t.TempDir(), "run.lrec")
	rec, err := replay.Create(s, mach.Source, path, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetObserver(rec)
	for !s.Halted() {
		if err := s.RunStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := replay.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Complete || !loaded.Halted {
		t.Fatal("file recording incomplete")
	}
	if _, err := replay.Create(s, mach.Source, filepath.Join(path, "nope"), replay.Options{}); err == nil {
		t.Fatal("Create under a file path succeeded")
	}
	_ = os.Remove(path)
}
