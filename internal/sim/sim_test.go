package sim

import (
	"strings"
	"testing"

	"golisa/internal/model"
	"golisa/internal/parser"
	"golisa/internal/sema"
)

// tiny16 is a 3-stage (FE EX WB) 16-bit pipelined machine used to pin down
// the simulator's cycle-level semantics:
//
//	NOP   0000 xxxxxxxxxxxx
//	ADDI  0001 rd(3) imm(9)      R[rd] += imm        executes in EX
//	BR    0010 target(12)        pc = target         executes in EX
//	ST    0011 rs(3) addr(9)     dmem[addr] = R[rs]  executes in WB
//	HALT  1111 xxxxxxxxxxxx      halt = 1            executes in EX
//
// Fetch reads pmem[pc] into ir, increments the latched pc, and pre-decodes;
// execution timing comes from the pipeline-stage assignments.
const tiny16 = `
RESOURCE {
  PROGRAM_COUNTER int pc LATCH;
  CONTROL_REGISTER bit[16] ir;
  REGISTER int R[8];
  REGISTER bit halt;
  REGISTER int cyc;
  REGISTER bit stall_req;
  REGISTER bit flush_req;
  PROGRAM_MEMORY bit[16] pmem[64];
  DATA_MEMORY int dmem[64];
  PIPELINE pipe = { FE; EX; WB };
}

OPERATION main {
  BEHAVIOR { cyc = cyc + 1; }
  ACTIVATION {
    if (!halt) { fetch },
    if (stall_req) { pipe.EX.stall(), pipe.FE.stall() },
    if (flush_req) { pipe.flush() },
    pipe.shift()
  }
}

OPERATION fetch IN pipe.FE {
  BEHAVIOR {
    ir = pmem[pc];
    pc = pc + 1;
    decode();
  }
}

OPERATION decode {
  DECLARE { GROUP Insn = { nop; addi; br; st; halt_op }; }
  CODING { ir == Insn }
  ACTIVATION { Insn }
}

OPERATION nop {
  CODING { 0b0000 0bx[12] }
  SYNTAX { "NOP" }
}

OPERATION addi IN pipe.EX {
  DECLARE { LABEL rd, imm; }
  CODING { 0b0001 rd:0bx[3] imm:0bx[9] }
  SYNTAX { "ADDI" rd:#u "," imm:#u }
  BEHAVIOR { R[rd] = R[rd] + imm; }
}

OPERATION br IN pipe.EX {
  DECLARE { LABEL target; }
  CODING { 0b0010 target:0bx[12] }
  SYNTAX { "BR" target:#u }
  BEHAVIOR { pc = target; }
}

OPERATION st IN pipe.WB {
  DECLARE { LABEL rs, addr; }
  CODING { 0b0011 rs:0bx[3] addr:0bx[9] }
  SYNTAX { "ST" rs:#u "," addr:#u }
  BEHAVIOR { dmem[addr] = R[rs]; }
}

OPERATION halt_op IN pipe.EX {
  CODING { 0b1111 0bx[12] }
  SYNTAX { "HALT" }
  BEHAVIOR { halt = 1; }
}
`

// tiny16 encoders.
func tADDI(rd, imm uint64) uint64 { return 0x1000 | rd<<9 | imm&0x1ff }
func tBR(target uint64) uint64    { return 0x2000 | target&0xfff }
func tST(rs, addr uint64) uint64  { return 0x3000 | rs<<9 | addr&0x1ff }

const tHALT = 0xf000
const tNOP = 0x0000

func buildModel(t *testing.T, src string) *model.Model {
	t.Helper()
	d, perrs := parser.Parse(src, "tiny16.lisa")
	for _, e := range perrs {
		t.Fatalf("parse: %v", e)
	}
	m, errs := sema.Build("tiny16", d)
	for _, e := range errs {
		t.Fatalf("sema: %v", e)
	}
	return m
}

func newSim(t *testing.T, mode Mode, prog []uint64) *Simulator {
	t.Helper()
	m := buildModel(t, tiny16)
	s := New(m, mode)
	if err := s.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if err := s.LoadProgram("pmem", 0, prog); err != nil {
		t.Fatalf("load: %v", err)
	}
	return s
}

func reg(t *testing.T, s *Simulator, i uint64) int64 {
	t.Helper()
	v, err := s.Mem("R", i)
	if err != nil {
		t.Fatal(err)
	}
	return v.Int()
}

func TestStraightLineExecution(t *testing.T) {
	for _, name := range []string{"interpretive", "compiled", "compiled+prebound"} {
		mode, _ := ParseMode(name)
		t.Run(name, func(t *testing.T) {
			s := newSim(t, mode, []uint64{
				tADDI(1, 5),
				tADDI(2, 7),
				tADDI(1, 10),
				tHALT,
			})
			n, err := s.Run(100)
			if err != nil {
				t.Fatal(err)
			}
			if reg(t, s, 1) != 15 || reg(t, s, 2) != 7 {
				t.Errorf("R1=%d R2=%d, want 15 7", reg(t, s, 1), reg(t, s, 2))
			}
			// HALT is fetched at step 3, executes in EX at step 4, Run
			// notices at the start of step 5 → 5 steps.
			if n != 5 {
				t.Errorf("steps = %d, want 5", n)
			}
		})
	}
}

func TestPipelineLatencyOneInstruction(t *testing.T) {
	// A single ADDI: fetched at step 0, executes in EX during step 1.
	s := newSim(t, Interpretive, []uint64{tADDI(3, 9), tHALT})
	if err := s.RunStep(); err != nil {
		t.Fatal(err)
	}
	if got := reg(t, s, 3); got != 0 {
		t.Errorf("after step 0: R3 = %d, want 0 (still in FE)", got)
	}
	if err := s.RunStep(); err != nil {
		t.Fatal(err)
	}
	if got := reg(t, s, 3); got != 9 {
		t.Errorf("after step 1: R3 = %d, want 9 (EX executed)", got)
	}
}

func TestStoreExecutesInWB(t *testing.T) {
	// ST is assigned to WB: one stage later than EX.
	s := newSim(t, Interpretive, []uint64{tADDI(1, 42), tST(1, 7), tHALT})
	// step0: fetch addi; step1: fetch st, addi@EX; step2: fetch halt, st@EX?
	// No: st assigned WB (stage 2) → executes at step 3.
	for i := 0; i < 3; i++ {
		if err := s.RunStep(); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := s.Mem("dmem", 7)
	if v.Int() != 0 {
		t.Errorf("after step 2: dmem[7] = %d, want 0 (ST not yet in WB)", v.Int())
	}
	if err := s.RunStep(); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Mem("dmem", 7)
	if v.Int() != 42 {
		t.Errorf("after step 3: dmem[7] = %d, want 42", v.Int())
	}
}

func TestBranchDelaySlot(t *testing.T) {
	// BR executes in EX one step after fetch; the pc latch commits at the
	// end of that step, so exactly one delay-slot instruction is fetched.
	s := newSim(t, Interpretive, []uint64{
		tADDI(1, 1), // 0
		tBR(4),      // 1
		tADDI(1, 2), // 2: delay slot — executes
		tADDI(1, 4), // 3: skipped
		tADDI(2, 8), // 4: branch target
		tHALT,       // 5
	})
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := reg(t, s, 1); got != 3 {
		t.Errorf("R1 = %d, want 3 (delay slot executed, next skipped)", got)
	}
	if got := reg(t, s, 2); got != 8 {
		t.Errorf("R2 = %d, want 8 (branch target executed)", got)
	}
}

func TestBackwardBranchLoop(t *testing.T) {
	// Loop: R1 += 1 three times via backward branch with a NOP delay slot.
	// R2 counts loop trips.
	s := newSim(t, Interpretive, []uint64{
		tADDI(1, 1), // 0: body
		tBR(0),      // 1
		tNOP,        // 2: delay slot
		tNOP,        // 3
	})
	// Run a bounded number of steps; the loop never halts.
	for i := 0; i < 3*3; i++ {
		if err := s.RunStep(); err != nil {
			t.Fatal(err)
		}
	}
	// Steps 0..8: fetches 0,1,2,0,1,2,0,1,2 → addi@EX at steps 1,4,7.
	if got := reg(t, s, 1); got != 3 {
		t.Errorf("R1 = %d, want 3", got)
	}
}

func TestStallDelaysExecution(t *testing.T) {
	s := newSim(t, Interpretive, []uint64{tADDI(1, 5), tHALT})
	// Stall EX+FE during step 1: the ADDI packet sits still, so EX runs at
	// step 2 instead.
	if err := s.RunStep(); err != nil { // step 0: fetch addi
		t.Fatal(err)
	}
	if err := s.SetScalar("stall_req", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.RunStep(); err != nil { // step 1: stalled
		t.Fatal(err)
	}
	if got := reg(t, s, 1); got != 5 {
		// The packet reached EX before the stall? It was inserted at FE in
		// step 0 and shifted to EX at end of step 0, so it executes in
		// step 1 regardless of the stall of FE; the stall holds it in EX
		// so it must not re-execute in step 2.
		t.Logf("R1 after stalled step = %d", got)
	}
	_ = s.SetScalar("stall_req", 0)
	if err := s.RunStep(); err != nil {
		t.Fatal(err)
	}
	if got := reg(t, s, 1); got != 5 {
		t.Errorf("R1 = %d, want 5 (executed exactly once)", got)
	}
	if _, err := s.Run(50); err != nil {
		t.Fatal(err)
	}
	if got := reg(t, s, 1); got != 5 {
		t.Errorf("R1 = %d after run, want 5 (no double execution)", got)
	}
}

func TestFlushDropsInFlightWork(t *testing.T) {
	s := newSim(t, Interpretive, []uint64{tADDI(1, 5), tADDI(2, 6), tHALT})
	if err := s.RunStep(); err != nil { // fetch addi1
		t.Fatal(err)
	}
	// Flush everything at the start of step 1: addi1 (now in EX) is
	// dropped before executing... but the flush happens during main's
	// activation, before packet entries run, so addi1 never executes.
	if err := s.SetScalar("flush_req", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.RunStep(); err != nil {
		t.Fatal(err)
	}
	_ = s.SetScalar("flush_req", 0)
	if got := reg(t, s, 1); got != 0 {
		t.Errorf("R1 = %d, want 0 (flushed before EX)", got)
	}
	// The fetch of addi2 was also flushed (same step), so only the halt
	// path remains; just verify the machine still runs to halt.
	if _, err := s.Run(50); err != nil {
		t.Fatal(err)
	}
	if !s.Halted() {
		t.Error("machine did not halt after flush")
	}
}

func TestCycleCounterCountsSteps(t *testing.T) {
	s := newSim(t, Interpretive, []uint64{tADDI(1, 1), tHALT})
	n, err := s.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	cyc, _ := s.Scalar("cyc")
	if cyc.Uint() != n {
		t.Errorf("cyc = %d, steps = %d", cyc.Uint(), n)
	}
}

func TestModesProduceIdenticalState(t *testing.T) {
	prog := []uint64{
		tADDI(1, 3),
		tADDI(2, 4),
		tBR(6),
		tADDI(1, 100), // delay slot
		tADDI(1, 1),   // skipped
		tADDI(1, 2),   // skipped
		tST(1, 9),     // 6
		tADDI(3, 7),
		tHALT,
	}
	ref := newSim(t, Interpretive, prog)
	if _, err := ref.Run(200); err != nil {
		t.Fatal(err)
	}
	mode := Compiled
	s := newSim(t, mode, prog)
	if _, err := s.Run(200); err != nil {
		t.Fatalf("%v: %v", mode, err)
	}
	// Compare all architectural state cycle-for-cycle at the end.
	if eq, diff := ref.S.Equal(s.S); !eq {
		t.Errorf("%v differs from interpretive at %s", mode, diff)
	}
	if ref.Step() != s.Step() {
		t.Errorf("%v step count %d != interpretive %d", mode, s.Step(), ref.Step())
	}
}

func TestDecodeCacheHitsInCompiledMode(t *testing.T) {
	// A loop re-executes the same words; compiled mode must decode each
	// distinct word once.
	prog := []uint64{tADDI(1, 1), tBR(0), tNOP}
	s := newSim(t, Compiled, prog)
	r := newRecorder()
	s.SetObserver(r)
	for i := 0; i < 30; i++ {
		if err := s.RunStep(); err != nil {
			t.Fatal(err)
		}
	}
	p := s.Profile()
	if p.Decodes > 3 {
		t.Errorf("compiled mode decoded %d times, want <= 3 distinct words", p.Decodes)
	}
	if p.DecodeHits < 20 {
		t.Errorf("decode hits = %d, want >= 20", p.DecodeHits)
	}
	if p.Compiles == 0 {
		t.Error("compiled mode compiled no behavior closures")
	}
	// Only the AST walker reports statement counts.
	if len(r.behaviors) != 0 {
		t.Errorf("compiled mode walked behavior ASTs: statement counts %v", r.behaviors)
	}

	i := newSim(t, Interpretive, prog)
	for j := 0; j < 30; j++ {
		if err := i.RunStep(); err != nil {
			t.Fatal(err)
		}
	}
	ip := i.Profile()
	if ip.DecodeHits != 0 {
		t.Errorf("interpretive mode should never hit a decode cache")
	}
	if ip.Compiles != 0 {
		t.Errorf("interpretive mode compiled %d closures, want 0", ip.Compiles)
	}
	if ip.Decodes != 30 {
		t.Errorf("interpretive decodes = %d, want 30 (one per fetch)", ip.Decodes)
	}
}

func TestProfileCountsOperations(t *testing.T) {
	s := newSim(t, Interpretive, []uint64{tADDI(1, 1), tADDI(1, 1), tHALT})
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	p := s.Profile()
	if p.Execs["addi"] != 2 {
		t.Errorf("addi execs = %d, want 2", p.Execs["addi"])
	}
	if p.Execs["main"] != p.Steps {
		t.Errorf("main execs = %d, steps = %d", p.Execs["main"], p.Steps)
	}
	if p.Execs["fetch"] == 0 || p.Execs["decode"] == 0 {
		t.Error("fetch/decode not counted")
	}
}

func TestDecodeFailureReportsStep(t *testing.T) {
	// 0x7fff matches no opcode.
	s := newSim(t, Interpretive, []uint64{0x7fff})
	_, err := s.Run(10)
	if err == nil {
		t.Fatal("expected decode error")
	}
	if !strings.Contains(err.Error(), "step 0") {
		t.Errorf("error should carry the step: %v", err)
	}
}

func TestHaltBeforeAnyStep(t *testing.T) {
	s := newSim(t, Interpretive, []uint64{tHALT})
	_ = s.SetScalar("halt", 1)
	n, err := s.Run(10)
	if err != nil || n != 0 {
		t.Errorf("Run = %d, %v; want 0, nil", n, err)
	}
}

func TestResetClearsEverything(t *testing.T) {
	s := newSim(t, Compiled, []uint64{tADDI(1, 5), tHALT})
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := reg(t, s, 1); got != 0 {
		t.Errorf("R1 after reset = %d", got)
	}
	if s.Step() != 0 {
		t.Errorf("step after reset = %d", s.Step())
	}
	p := s.Profile()
	if p.Steps != 0 {
		t.Errorf("profile steps after reset = %d", p.Steps)
	}
}

func TestPipelineOccupancyVisible(t *testing.T) {
	s := newSim(t, Interpretive, []uint64{tADDI(1, 1), tADDI(2, 2), tHALT})
	if err := s.RunStep(); err != nil {
		t.Fatal(err)
	}
	pipes := s.Pipes()
	if len(pipes) != 1 {
		t.Fatalf("pipes = %d", len(pipes))
	}
	occ := pipes[0].Occupancy()
	// After one step + shift the first packet is in EX.
	if !occ[1] {
		t.Errorf("occupancy after step 0: %v, want packet in EX", occ)
	}
}
