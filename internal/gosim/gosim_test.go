package gosim

import (
	"errors"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"golisa/internal/asm"
	"golisa/internal/core"
	"golisa/internal/cosim"
	"golisa/internal/model"
	"golisa/internal/sim"
)

// progLoop is the branchy simple16 kernel the cosim suite uses: a counted
// loop with branch delay slots.
const progLoop = `
start:  LDI B1, 1
        LDI A1, 8
loop:   SUB A1, A1, B1
        BNZ A1, loop
        NOP
        NOP
        HALT
        NOP
        NOP
`

// progOps walks the whole simple16 ISA: ALU ops, the 40-bit MAC path,
// saturation, loads/stores with their delay slots, and a taken branch.
const progOps = `
start:  LDI A1, 5
        LDI A2, 7
        LDI B3, -3
        ADD A3, A1, A2
        SUB A4, A3, B3
        AND A5, A1, A3
        OR  A6, A1, A2
        XOR A7, A3, A4
        MPY B1, A1, A2
        CLRACC
        MAC A1, A2
        MAC A3, A4
        SAT B2
        LDI A8, 100
        ST  A3, A8, 0
        ST  A4, A8, 1
        LD  B4, A8, 0
        NOP
        LD  B5, A8, 1
        B   end
        NOP
        NOP
        ADD A1, A1, A1
end:    HALT
        NOP
        NOP
`

// opsModel is an unpipelined machine whose instructions stress the
// semantic corners the emitter must get right: signed/unsigned division
// and remainder, shift-count masking, mixed-signedness compares, alias
// slices, saturation, print formatting, and an arithmetic right shift
// of a negative 64-bit value by more than 32 bits.
const opsModel = `
RESOURCE {
  PROGRAM_COUNTER int pc;
  CONTROL_REGISTER bit[16] ir;
  REGISTER int r0;
  REGISTER int r1;
  REGISTER int r2;
  REGISTER bit[8] small;
  REGISTER bit[40] wide;
  REGISTER bit[32] wide_hi ALIAS wide[39..8];
  REGISTER bit halt;
  PROGRAM_MEMORY bit[16] prog_mem[0x100];
  DATA_MEMORY int data_mem[0x40];
}

OPERATION reset {
  BEHAVIOR { pc = 0; halt = 0; }
}

OPERATION main {
  BEHAVIOR { }
  ACTIVATION { if (!halt) { fetch } }
}

OPERATION fetch {
  BEHAVIOR {
    ir = prog_mem[pc];
    pc = pc + 1;
    decode();
  }
}

OPERATION decode {
  DECLARE {
    GROUP Instruction = {
      i_imm; i_arith; i_shift; i_cmp; i_mem; i_sat; i_bits; i_print; i_halt
    };
  }
  CODING { ir == Instruction }
  ACTIVATION { Instruction }
}

OPERATION i_imm {
  DECLARE { LABEL imm; }
  CODING { 0b0001 imm:0bx[12] }
  SYNTAX { "IMM " imm:#u }
  BEHAVIOR {
    r0 = sign_extend(imm, 12);
    small = imm;
    wide = wide + imm;
  }
}

OPERATION i_arith {
  CODING { 0b0010 0bx[12] }
  SYNTAX { "ARITH" }
  BEHAVIOR {
    r1 = r0 * 3 - 7;
    r2 = r1 / (r0 + 1);
    long p = r1;
    p = p * r0;
    wide = p;
    r2 = r2 % 5;
  }
}

OPERATION i_shift {
  CODING { 0b0011 0bx[12] }
  SYNTAX { "SHIFT" }
  BEHAVIOR {
    r1 = r0 << 3;
    r2 = r0 >> 2;
    small = small >> 1;
    unsigned u = r0;
    long q = r0;
    q = q * 1024;
    r1 = r1 + (q >> 40);
    r1 = r1 ^ (u >> 2);
    r2 = r2 + (r0 << 35);
  }
}

OPERATION i_cmp {
  CODING { 0b0100 0bx[12] }
  SYNTAX { "CMP" }
  BEHAVIOR {
    unsigned a = small;
    r1 = (r0 < 5) + (small > 100) * 2 + (r0 == r2) * 4 + ((a >= 100) << 3);
    r2 = min(r0, r1) + max(r0, r1) + abs(r0 - 9);
    r1 = r0 ? r1 : ~r2;
  }
}

OPERATION i_mem {
  DECLARE { LABEL off; }
  CODING { 0b0101 off:0bx[12] }
  SYNTAX { "MEM " off:#u }
  BEHAVIOR {
    data_mem[off] = r0 + off;
    r1 = data_mem[off] * 2;
    data_mem[r1] = r1;
  }
}

OPERATION i_sat {
  CODING { 0b0110 0bx[12] }
  SYNTAX { "SATB" }
  BEHAVIOR {
    r1 = saturate(wide, 32);
    r2 = addsat(r0, r1);
    r0 = subsat(r2, 12345);
    wide_hi = r1;
  }
}

OPERATION i_bits {
  CODING { 0b0111 0bx[12] }
  SYNTAX { "BITS" }
  BEHAVIOR {
    r1 = bits(wide, 19, 4);
    r2 = wide[7..0] + zero_extend(r0, 8);
    wide[23..16] = r0;
  }
}

OPERATION i_print {
  CODING { 0b1000 0bx[12] }
  SYNTAX { "PRT" }
  BEHAVIOR {
    print("state", r0, small, wide);
  }
}

OPERATION i_halt {
  CODING { 0b1111 0bx[12] }
  SYNTAX { "HALT" }
  BEHAVIOR { halt = 1; }
}
`

const opsProg = `
        IMM 100
        ARITH
        SHIFT
        CMP
        MEM 7
        SATB
        BITS
        PRT
        IMM 4000
        ARITH
        SHIFT
        CMP
        SATB
        MEM 19
        BITS
        PRT
        HALT
`

// loadPair compiles src for the model (builtin name, or inline LISA when
// lisaSrc is non-empty) into a gosim Program plus the pieces the tests
// wire against.
func loadPair(t testing.TB, name, lisaSrc, progSrc string) (*core.Machine, *asm.Program, *Program) {
	t.Helper()
	var mc *core.Machine
	var err error
	if lisaSrc != "" {
		mc, err = core.LoadMachine(name, lisaSrc)
	} else {
		mc, err = core.LoadBuiltin(name)
	}
	if err != nil {
		t.Fatal(err)
	}
	a, err := mc.NewAssembler()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Assemble(progSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(mc, prog)
	if err != nil {
		t.Fatalf("gosim.Compile: %v", err)
	}
	return mc, prog, p
}

// refSim builds the interpretive reference simulator with the program
// loaded — the engine every gosim backend is measured against.
func refSim(t *testing.T, mc *core.Machine, prog *asm.Program) *sim.Simulator {
	t.Helper()
	s, err := mc.NewSimulator(sim.Interpretive)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := mc.ProgramMemory()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgram(pm, prog.Origin, prog.Words); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCompileUnsupportedModels pins the supported-class boundary, which
// is per (model, program): the multi-pipeline c62x refuses structurally
// before looking at any program; simd16 refuses only when the program
// actually reaches its loop-bodied vector instructions.
func TestCompileUnsupportedModels(t *testing.T) {
	mc, err := core.LoadBuiltin("c62x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err = Compile(mc, &asm.Program{Words: []uint64{0}, Width: 32}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("c62x: error %v does not wrap ErrUnsupported", err)
	}

	mc, err = core.LoadBuiltin("simd16")
	if err != nil {
		t.Fatal(err)
	}
	a, err := mc.NewAssembler()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Assemble("LDI R1, 100\nNOP\nVADD V2, V0, V1\nHALT\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err = Compile(mc, prog); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("simd16 vector program: error %v does not wrap ErrUnsupported", err)
	}
}

// snap is one per-cycle state snapshot collected through OnCycleState.
type snap struct {
	n   uint64
	sc  []uint64
	arr [][]uint64
}

func collector(dst *[]snap) func(uint64, []uint64, [][]uint64) {
	return func(n uint64, sc []uint64, arr [][]uint64) {
		cp := snap{n: n, sc: append([]uint64(nil), sc...)}
		for _, a := range arr {
			cp.arr = append(cp.arr, append([]uint64(nil), a...))
		}
		*dst = append(*dst, cp)
	}
}

func needGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
}

// TestLockstepNativeVsInterpretive runs the built runner through the
// cosim machinery: its per-cycle state stream drives a cosim.Lockstep
// against a live interpretive reference, and the two must agree at every
// retired control step, in their prints, their halt, their step counts
// and their final scalars and memories.
func TestLockstepNativeVsInterpretive(t *testing.T) {
	needGo(t)
	cache := NewCache(t.TempDir())
	cases := []struct{ label, model, lisa, prog string }{
		{"simple16-loop", "simple16", "", progLoop},
		{"simple16-ops", "simple16", "", progOps},
		{"opstest", "opstest", opsModel, opsProg},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			mc, prog, p := loadPair(t, tc.model, tc.lisa, tc.prog)
			ref := refSim(t, mc, prog)
			var refPrints []string
			ref.OnPrint = func(s string) { refPrints = append(refPrints, s) }
			var cur snap
			ls := cosim.NewLockstepState(func() *model.State {
				return p.StateFrom(cur.sc, cur.arr)
			}, ref)
			res, err := NewEngine(p, cache, Options{
				OnCycleState: func(n uint64, sc []uint64, arr [][]uint64) {
					cur = snap{n: n, sc: sc, arr: arr}
					ls.Tick(n)
				},
			}).runNative(10_000)
			if err != nil {
				t.Fatal(err)
			}
			if ls.Diverged {
				t.Fatalf("lockstep divergence at cycle %d: %s", ls.Cycle, ls.Detail)
			}
			if !res.Halted || !ref.Halted() {
				t.Fatalf("halt disagreement: native %v, interpretive %v", res.Halted, ref.Halted())
			}
			if refSteps := ref.Profile().Steps; res.Steps != refSteps {
				t.Fatalf("native ran %d steps, interpretive %d", res.Steps, refSteps)
			}
			if !reflect.DeepEqual(res.Prints, refPrints) {
				t.Fatalf("print divergence:\nnative:       %q\ninterpretive: %q", res.Prints, refPrints)
			}
			if eq, diff := p.StateFrom(res.Scalars, res.Arrays).Equal(ref.S); !eq {
				t.Fatalf("final state divergence: %s", diff)
			}
		})
	}
}

// TestCacheBuildsOnce pins the content-addressed contract: one build per
// (model, program) pair per cache directory, ever.
func TestCacheBuildsOnce(t *testing.T) {
	needGo(t)
	_, _, p := loadPair(t, "simple16", "", progLoop)
	dir := t.TempDir()
	c := NewCache(dir)
	eng := NewEngine(p, c, Options{})
	r1, err := eng.runNative(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	if got := c.Builds(); got != 1 {
		t.Fatalf("builds after first run: %d, want 1", got)
	}
	r2, err := eng.runNative(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("second run missed the cache")
	}
	if got := c.Builds(); got != 1 {
		t.Fatalf("builds after second run: %d, want 1", got)
	}
	// A fresh Cache over the same directory models a new process: the
	// on-disk binary must satisfy it without any build.
	c2 := NewCache(dir)
	r3, err := NewEngine(p, c2, Options{}).runNative(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.CacheHit || c2.Builds() != 0 {
		t.Fatalf("fresh cache over warm dir: hit=%v builds=%d, want hit and 0 builds", r3.CacheHit, c2.Builds())
	}
	if r1.Steps != r2.Steps || r2.Steps != r3.Steps {
		t.Fatalf("cached runs disagree on steps: %d %d %d", r1.Steps, r2.Steps, r3.Steps)
	}
}

// TestAutoFallsBackWithoutToolchain hides the Go toolchain: with an
// empty cache no runner can be built, so the run fails with ErrNoRunner
// naming the toolchain, for the caller to fall back on.
func TestAutoFallsBackWithoutToolchain(t *testing.T) {
	_, _, p := loadPair(t, "simple16", "", progOps)
	t.Setenv("PATH", t.TempDir())
	res, err := NewEngine(p, NewCache(t.TempDir()), Options{}).Run(10_000)
	if res != nil || !errors.Is(err, ErrNoRunner) {
		t.Fatalf("Run = (%+v, %v), want no result and ErrNoRunner", res, err)
	}
	if !strings.Contains(err.Error(), "go toolchain not found") {
		t.Fatalf("error %q does not name the toolchain", err)
	}
}

// TestAutoShortProgramUsesIR: programs below the build threshold are not
// worth a `go build`; the run fails with ErrNoRunner naming the threshold.
func TestAutoShortProgramUsesIR(t *testing.T) {
	_, _, p := loadPair(t, "simple16", "", "HALT\nNOP\nNOP\n")
	res, err := NewEngine(p, NewCache(t.TempDir()), Options{}).Run(100)
	if res != nil || !errors.Is(err, ErrNoRunner) {
		t.Fatalf("Run = (%+v, %v), want no result and ErrNoRunner", res, err)
	}
	if !strings.Contains(err.Error(), "below the 4-word build threshold") {
		t.Fatalf("error %q does not name the build threshold", err)
	}
}

// TestIRDispatchUnknownWord steers the native runner into a data word
// that no coding matches and expects a runtime error naming the word:
// the simulation's own error, not a missing runner.
func TestIRDispatchUnknownWord(t *testing.T) {
	needGo(t)
	// Opcode 0b100001 is unassigned in simple16.
	_, _, p := loadPair(t, "simple16", "", progBadWord)
	cache := NewCache(t.TempDir())
	defer cache.Close()
	res, err := NewEngine(p, cache, Options{}).Run(100)
	if err == nil || res == nil || errors.Is(err, ErrNoRunner) {
		t.Fatalf("Run = (%+v, %v), want a runtime error with its partial result", res, err)
	}
	if !strings.Contains(err.Error(), "0x84000000") {
		t.Fatalf("runtime error %q does not name the word", err)
	}
}

// TestCompileRefusesWhatTheEmitterCannotRender pins the boundary between
// the shared lowering and the emitter: the lowering expresses loops,
// switches and pipeline operations (sim's compiled mode runs them), but
// gosim.Compile must refuse each with ErrUnsupported, so no Program — and
// therefore no emitted runner — exists for them.
func TestCompileRefusesWhatTheEmitterCannotRender(t *testing.T) {
	bodies := map[string]string{
		"loop":               `int i; for (i = 0; i < 4; i++) { r0 = r0 + i; }`,
		"switch":             `switch (r0) { case 1: r1 = 2; break; default: r1 = 3; }`,
		"pipeline operation": `pipe.EX.stall();`,
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			src := `
RESOURCE {
  PROGRAM_COUNTER int pc;
  CONTROL_REGISTER bit[16] ir;
  REGISTER int r0;
  REGISTER int r1;
  REGISTER bit halt;
  PROGRAM_MEMORY bit[16] prog_mem[0x100];
  PIPELINE pipe = { FE; EX };
}
OPERATION reset { BEHAVIOR { pc = 0; halt = 0; } }
OPERATION main { BEHAVIOR { } ACTIVATION { if (!halt) { fetch } } }
OPERATION fetch { BEHAVIOR { ir = prog_mem[pc]; pc = pc + 1; decode(); } }
OPERATION decode {
  DECLARE { GROUP Instruction = { i_body; i_halt }; }
  CODING { ir == Instruction }
  ACTIVATION { Instruction }
}
OPERATION i_halt { CODING { 0b11111111 0bx[8] } SYNTAX { "HALT" } BEHAVIOR { halt = 1; } }
OPERATION i_body { CODING { 0b00000001 0bx[8] } SYNTAX { "BODY" } BEHAVIOR { ` + body + ` } }
`
			mc, err := core.LoadMachine("refuse", src)
			if err != nil {
				t.Fatal(err)
			}
			a, err := mc.NewAssembler()
			if err != nil {
				t.Fatal(err)
			}
			prog, err := a.Assemble("BODY\nHALT\n")
			if err != nil {
				t.Fatal(err)
			}
			p, err := Compile(mc, prog)
			if !errors.Is(err, ErrUnsupported) || p != nil || !strings.Contains(err.Error(), name+" statement") {
				t.Fatalf("Compile = (%v, %v), want no program and ErrUnsupported naming the %s", p, err, name)
			}
			// The same behavior runs on sim's compiled engine, which
			// executes the shared lowering.
			s, _, err := mc.AssembleAndLoad("BODY\nHALT\n", sim.Compiled)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(100); err != nil || !s.Halted() {
				t.Fatalf("compiled engine: halted %v, err %v", s.Halted(), err)
			}
		})
	}
}
