package gosim

import (
	"errors"
	"fmt"
	"os/exec"
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

// assertState compares a gosim state snapshot against the interpretive
// simulator's, slot by slot, failing on the first differing resource.
func assertState(t *testing.T, p *Program, sc []uint64, arr [][]uint64, ref *sim.Simulator, cycle uint64) {
	t.Helper()
	for i, r := range p.scalars {
		if r == nil {
			continue
		}
		if got, want := sc[i], ref.S.Scalars[i]; got != want {
			t.Fatalf("cycle %d: scalar %s: generated %#x, interpretive %#x", cycle, r.Name, got, want)
		}
	}
	for i, r := range p.arrays {
		if r == nil {
			continue
		}
		for j := range arr[i] {
			if got, want := arr[i][j], ref.S.Arrays[i][j]; got != want {
				t.Fatalf("cycle %d: %s[%d]: generated %#x, interpretive %#x", cycle, r.Name, j, got, want)
			}
		}
	}
}

// lockstepIR steps the IR machine and the interpretive simulator together
// and demands byte-identical architectural state after every control step.
func lockstepIR(t *testing.T, name, lisaSrc, progSrc string) {
	t.Helper()
	mc, prog, p := loadPair(t, name, lisaSrc, progSrc)
	ref := refSim(t, mc, prog)
	var refPrints, irPrints []string
	ref.OnPrint = func(s string) { refPrints = append(refPrints, s) }
	m := p.NewMachine()
	m.OnPrint = func(s string) { irPrints = append(irPrints, s) }
	for step := 0; step < 10_000; step++ {
		if m.Halted() != ref.Halted() {
			t.Fatalf("cycle %d: halted: generated %v, interpretive %v", m.Cycles(), m.Halted(), ref.Halted())
		}
		if m.Halted() {
			break
		}
		if err := ref.RunStep(); err != nil {
			t.Fatalf("interpretive step: %v", err)
		}
		m.Step()
		if err := m.Err(); err != nil {
			t.Fatalf("generated step: %v", err)
		}
		assertState(t, p, m.Scalars(), m.Arrays(), ref, m.Cycles())
	}
	if !m.Halted() {
		t.Fatal("program did not halt")
	}
	if strings.Join(refPrints, "\n") != strings.Join(irPrints, "\n") {
		t.Fatalf("print divergence:\ninterpretive: %q\ngenerated:    %q", refPrints, irPrints)
	}
}

func TestIRLockstepSimple16Loop(t *testing.T) { lockstepIR(t, "simple16", "", progLoop) }
func TestIRLockstepSimple16Ops(t *testing.T)  { lockstepIR(t, "simple16", "", progOps) }
func TestIRLockstepOpsModel(t *testing.T)     { lockstepIR(t, "opstest", opsModel, opsProg) }

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

// TestNativeMatchesIR builds the real runner and demands that the native
// subprocess reports the identical per-cycle state stream, prints, and
// final result as the in-process IR interpreter.
func TestNativeMatchesIR(t *testing.T) {
	needGo(t)
	cases := []struct{ name, lisa, prog string }{
		{"simple16", "", progOps},
		{"opstest", opsModel, opsProg},
	}
	cache := NewCache(t.TempDir())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, p := loadPair(t, tc.name, tc.lisa, tc.prog)
			var irSnaps, natSnaps []snap
			ir, err := NewEngine(p, nil, Options{OnCycleState: collector(&irSnaps)}).runIR(10_000)
			if err != nil {
				t.Fatalf("IR run: %v", err)
			}
			nat, err := NewEngine(p, cache, Options{OnCycleState: collector(&natSnaps)}).runNative(10_000)
			if err != nil {
				t.Fatalf("native run: %v", err)
			}
			if !nat.Native {
				t.Fatal("native run did not report Native")
			}
			if ir.Steps != nat.Steps || ir.Halted != nat.Halted {
				t.Fatalf("result divergence: IR (%d, %v), native (%d, %v)", ir.Steps, ir.Halted, nat.Steps, nat.Halted)
			}
			if strings.Join(ir.Prints, "\n") != strings.Join(nat.Prints, "\n") {
				t.Fatalf("print divergence:\nIR:     %q\nnative: %q", ir.Prints, nat.Prints)
			}
			if len(irSnaps) != len(natSnaps) {
				t.Fatalf("trace length: IR %d cycles, native %d", len(irSnaps), len(natSnaps))
			}
			for i := range irSnaps {
				if fmt.Sprint(irSnaps[i]) != fmt.Sprint(natSnaps[i]) {
					t.Fatalf("state divergence at trace entry %d:\nIR:     %+v\nnative: %+v", i, irSnaps[i], natSnaps[i])
				}
			}
			if fmt.Sprint(ir.Scalars) != fmt.Sprint(nat.Scalars) || fmt.Sprint(ir.Arrays) != fmt.Sprint(nat.Arrays) {
				t.Fatal("final state divergence between IR and native runs")
			}
		})
	}
}

// TestLockstepNativeVsInterpretive is the ISSUE's acceptance check run
// through the cosim machinery: the built runner's per-cycle state stream
// drives a cosim.Lockstep against a live interpretive reference, and the
// two must agree at every retired control step.
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

// TestAutoFallsBackWithoutToolchain hides the Go toolchain and expects an
// Auto engine to degrade to the IR interpreter, recording why.
func TestAutoFallsBackWithoutToolchain(t *testing.T) {
	_, _, p := loadPair(t, "simple16", "", progOps)
	t.Setenv("PATH", t.TempDir())
	res, err := NewEngine(p, NewCache(t.TempDir()), Options{}).Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Native {
		t.Fatal("run claims native without a toolchain")
	}
	if !strings.Contains(res.Fallback, "go toolchain") {
		t.Fatalf("fallback reason %q does not name the toolchain", res.Fallback)
	}
	if !res.Halted {
		t.Fatal("IR fallback did not finish the program")
	}
}

// TestAutoShortProgramUsesIR: programs below the build threshold are not
// worth a `go build`; Auto must run them in-process.
func TestAutoShortProgramUsesIR(t *testing.T) {
	_, _, p := loadPair(t, "simple16", "", "HALT\nNOP\nNOP\n")
	res, err := NewEngine(p, NewCache(t.TempDir()), Options{}).Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Native {
		t.Fatal("short program ran natively")
	}
	if !strings.Contains(res.Fallback, "threshold") {
		t.Fatalf("fallback reason %q does not mention the build threshold", res.Fallback)
	}
	if !res.Halted {
		t.Fatal("short program did not halt")
	}
}

// TestIRDispatchUnknownWord steers the machine into a data word that no
// coding matches and expects the defined dispatch error, not silence.
func TestIRDispatchUnknownWord(t *testing.T) {
	// Opcode 0b100001 is unassigned in simple16.
	_, _, p := loadPair(t, "simple16", "", "NOP\n.word 0x84000000\nNOP\nNOP\nNOP\n")
	m := p.NewMachine()
	_, err := m.Run(100)
	if err == nil {
		t.Fatal("run over an undecodable word succeeded")
	}
	if !strings.Contains(err.Error(), "0x84000000") && !strings.Contains(err.Error(), "does not decode") && !strings.Contains(err.Error(), "unknown word") {
		t.Fatalf("unexpected dispatch error: %v", err)
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
