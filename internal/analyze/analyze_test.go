package analyze_test

import (
	"bytes"
	"strings"
	"testing"

	"golisa/internal/analyze"
	"golisa/internal/core"
	"golisa/internal/profile"
	"golisa/internal/replay"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// hazard16 is a 3-stage machine built to emit every hazard class the
// attribution engine classifies:
//
//   - LD raises mem_wait, and the mem_wait-guarded stalls are data hazards
//     on that resource;
//   - BR raises redirect, and the redirect-guarded whole-pipe flush is a
//     control hazard (with a fetch bubble in the branch shadow);
//   - HOLD stalls fetch unconditionally from its ACTIVATION (structural)
//     and raises busy, so the following fetch bubbles trail its cause;
//   - ESC does the same from its BEHAVIOR (explicit).
//
// busy gates fetch without emitting events of its own: the bubble steps it
// inserts carry no hazard event, exercising the analyzer's sticky
// last-cause attribution (bubbles trail the hazard that made them).
const hazard16 = `
RESOURCE {
  PROGRAM_COUNTER int pc LATCH;
  CONTROL_REGISTER bit[16] ir;
  REGISTER int R[8];
  REGISTER bit halt;
  REGISTER int mem_wait;
  REGISTER int busy;
  REGISTER bit redirect;
  PROGRAM_MEMORY bit[16] pmem[64];
  DATA_MEMORY int dmem[64];
  PIPELINE pipe = { FE; EX; WB };
}

OPERATION main {
  ACTIVATION {
    if (!halt && mem_wait == 0 && busy == 0 && !redirect) { fetch },
    if (mem_wait > 0) { pipe.EX.stall(), pipe.FE.stall(), tick },
    if (busy > 0) { tickb },
    if (redirect) { pipe.flush(), retarget },
    pipe.shift()
  }
}

OPERATION tick { BEHAVIOR { mem_wait = mem_wait - 1; } }
OPERATION tickb { BEHAVIOR { busy = busy - 1; } }
OPERATION retarget { BEHAVIOR { redirect = 0; } }

OPERATION fetch IN pipe.FE {
  BEHAVIOR {
    ir = pmem[pc];
    pc = pc + 1;
    decode();
  }
}

OPERATION decode {
  DECLARE { GROUP Insn = { nop; addi; ld; br; hold; esc; halt_op }; }
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

OPERATION ld IN pipe.EX {
  DECLARE { LABEL rd, addr; }
  CODING { 0b0010 rd:0bx[3] addr:0bx[9] }
  SYNTAX { "LD" rd:#u "," addr:#u }
  BEHAVIOR { R[rd] = dmem[addr]; mem_wait = 2; }
}

OPERATION br IN pipe.EX {
  DECLARE { LABEL target; }
  CODING { 0b0011 target:0bx[12] }
  SYNTAX { "BR" target:#u }
  BEHAVIOR { pc = target; redirect = 1; }
}

OPERATION hold IN pipe.EX {
  DECLARE { LABEL rd, imm; }
  CODING { 0b0100 rd:0bx[3] imm:0bx[9] }
  SYNTAX { "HOLD" rd:#u "," imm:#u }
  BEHAVIOR { R[rd] = R[rd] + imm; busy = 2; }
  ACTIVATION { pipe.FE.stall() }
}

OPERATION esc IN pipe.EX {
  CODING { 0b0101 0bx[12] }
  SYNTAX { "ESC" }
  BEHAVIOR { pipe.FE.stall(); busy = 2; }
}

OPERATION halt_op IN pipe.EX {
  CODING { 0b1111 0bx[12] }
  SYNTAX { "HALT" }
  BEHAVIOR { halt = 1; }
}
`

// hazardProg trips every hazard class, with NOP spacing so each hazard's
// bubbles drain before the next hazard op reaches execute.
const hazardProg = `
    ADDI 1, 5
    LD   2, 3
    NOP
    NOP
    HOLD 3, 2
    NOP
    NOP
    ESC
    NOP
    NOP
    BR   after
    NOP            ; wrong path, flushed
after:
    ADDI 4, 2
    HALT
`

func runHazard(t *testing.T, mode sim.Mode, extra ...trace.Observer) (*sim.Simulator, uint64) {
	t.Helper()
	mach, err := core.LoadMachine("hazard16", hazard16)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := mach.AssembleAndLoad(hazardProg, mode)
	if err != nil {
		t.Fatal(err)
	}
	if len(extra) > 0 {
		s.SetObserver(trace.Fanout(extra...))
	}
	n, err := s.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Halted() {
		t.Fatal("program did not halt")
	}
	return s, n
}

// TestAttributionInvariant pins the cycle-reconciliation contract: the
// profiler's issue/penalty/idle split and the analyzer's per-cause CPI
// breakdown both sum exactly to the simulated control steps, every hazard
// class shows up, and interpreted and compiled engines attribute
// identically.
func TestAttributionInvariant(t *testing.T) {
	var reports []string
	for _, name := range []string{"interpretive", "compiled", "compiled+prebound"} {
		mode, _ := sim.ParseMode(name)
		t.Run(name, func(t *testing.T) {
			a := analyze.New()
			p := profile.New(profile.Options{Source: "hazard.s", Model: "hazard16"})
			_, steps := runHazard(t, mode, a, p)

			// Profiler invariant: every control step is charged somewhere.
			var prof uint64
			for _, site := range p.Sites() {
				prof += site.Cycles()
			}
			prof += p.IdleCycles()
			if prof != steps {
				t.Errorf("profiler: Σissue+Σpenalty+idle = %d, want %d steps", prof, steps)
			}

			// Analyzer invariant: the CPI buckets sum to the same total.
			rep := a.Report()
			var sum uint64
			for _, b := range rep.Breakdown {
				sum += b.Cycles
			}
			if sum != steps || rep.Steps != steps {
				t.Errorf("analyzer: buckets sum to %d (Steps=%d), want %d", sum, rep.Steps, steps)
			}
			if p.Steps() != rep.Steps {
				t.Errorf("profiler counted %d steps, analyzer %d", p.Steps(), rep.Steps)
			}

			// Every hazard class must be attributed.
			bucket := map[string]uint64{}
			for _, b := range rep.Breakdown {
				bucket[b.Name] = b.Cycles
			}
			for _, cause := range []string{"data", "control", "structural", "explicit"} {
				if bucket[cause] == 0 {
					t.Errorf("no %s penalty cycles attributed (breakdown %v)", cause, rep.Breakdown)
				}
			}
			if bucket["issue"] == 0 {
				t.Error("no issue cycles")
			}

			// The data hazards must name their gating resource.
			foundWait := false
			for _, rc := range rep.Resources {
				if rc.Resource == "mem_wait" && rc.Events > 0 {
					foundWait = true
				}
			}
			if !foundWait {
				t.Errorf("data stalls not attributed to mem_wait (resources %v)", rep.Resources)
			}
			// Flushes must be classified as control hazards.
			for _, e := range rep.Events {
				if e.Cause == "control" && e.Flushes == 0 {
					t.Errorf("control hazards recorded no flush events (%v)", rep.Events)
				}
			}
			// The what-if table covers every cause that cost cycles.
			for _, cause := range []string{"data", "control", "structural", "explicit"} {
				found := false
				for _, w := range rep.WhatIf {
					if w.Cause == cause && w.EstSteps == steps-w.Penalty {
						found = true
					}
				}
				if !found {
					t.Errorf("what-if entry for %s missing or inconsistent (%v)", cause, rep.WhatIf)
				}
			}

			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			reports = append(reports, buf.String())
		})
	}
	// All engines must agree byte for byte: attribution reads only
	// committed architectural state, which is mode-invariant.
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Errorf("mode %d report differs from mode 0:\n%s\nvs\n%s", i, reports[i], reports[0])
		}
	}
}

// TestAttributionReplayIdentical records a hazard-heavy run and replays
// it with a second analyzer riding the verified re-execution: the replayed
// report must match the live one byte for byte.
func TestAttributionReplayIdentical(t *testing.T) {
	mach, err := core.LoadMachine("hazard16", hazard16)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := mach.AssembleAndLoad(hazardProg, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	live := analyze.New()
	var rec bytes.Buffer
	r := replay.NewRecorder(s, hazard16, &rec, replay.Options{Every: 8})
	s.SetObserver(trace.Fanout(live, r))
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	var liveJSON bytes.Buffer
	if err := live.Report().WriteJSON(&liveJSON); err != nil {
		t.Fatal(err)
	}

	parsed, err := replay.Parse(rec.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rp, err := replay.NewReplayer(parsed)
	if err != nil {
		t.Fatal(err)
	}
	replayed := analyze.New()
	rp.SetExtra(replayed)
	if _, err := rp.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	var replayJSON bytes.Buffer
	if err := replayed.Report().WriteJSON(&replayJSON); err != nil {
		t.Fatal(err)
	}
	if liveJSON.String() != replayJSON.String() {
		t.Errorf("replayed attribution differs from live run:\nlive:\n%s\nreplayed:\n%s",
			liveJSON.String(), replayJSON.String())
	}
	if !strings.Contains(liveJSON.String(), `"mem_wait"`) {
		t.Error("live report never attributed the mem_wait interlock")
	}
}

// TestReportWriters smoke-tests the text and HTML exporters on a real run.
func TestReportWriters(t *testing.T) {
	a := analyze.New()
	_, steps := runHazard(t, sim.Interpretive, a)
	rep := a.Report()

	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cycle breakdown", "mem_wait", "what-if", "hazard attribution: hazard16"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}

	var html bytes.Buffer
	if err := rep.WriteHTML(&html); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!DOCTYPE html>", "mem_wait", "what-if", "spark"} {
		if !strings.Contains(html.String(), want) {
			t.Errorf("html report missing %q", want)
		}
	}
	if steps == 0 {
		t.Fatal("no steps simulated")
	}
}

// TestAnalyzerReattachResets pins the OnAttach contract: re-attaching the
// same analyzer restarts attribution from zero (the replayer re-announces
// the topology on every seek).
func TestAnalyzerReattachResets(t *testing.T) {
	a := analyze.New()
	_, first := runHazard(t, sim.Interpretive, a)
	if a.Steps() != first {
		t.Fatalf("first run: %d steps analyzed, want %d", a.Steps(), first)
	}
	_, second := runHazard(t, sim.Interpretive, a)
	if a.Steps() != second {
		t.Errorf("after re-attach: %d steps analyzed, want %d (state must reset)", a.Steps(), second)
	}
}
