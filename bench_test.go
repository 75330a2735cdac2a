// Benchmark harness regenerating the paper's evaluation (see EXPERIMENTS.md
// for the experiment index E1..E8 and the paper-vs-measured record):
//
//	E1  BenchmarkModelStats        — §4 model complexity table
//	E2  BenchmarkGenerate*         — §4.1 tool-generation time (paper: 30 s)
//	E3  BenchmarkSim*              — compiled vs interpretive simulation
//	E5  BenchmarkSwitch*           — SWITCH/CASE compile-time flattening ablation
//	E6  BenchmarkPipelineOps       — stall/flush/shift mechanism cost
//	E7  BenchmarkCosim             — co-simulation with devices attached
//	E8  BenchmarkAssemble/Disassemble — generated assembler/disassembler
//	E9  BenchmarkObserverOverhead  — trace hook cost, nil vs metrics observer
//	E10 BenchmarkRecordOverhead    — deterministic record/replay logging cost
//	E11 BenchmarkAttributionOverhead — hazard attribution analyzer cost
//	E12 BenchmarkCoverageOverhead  — model-coverage collector cost
//
// Run: go test -bench=. -benchmem
package golisa_test

import (
	"io"
	"strings"
	"testing"
	"time"

	"golisa"
	"golisa/internal/analyze"
	"golisa/internal/cosim"
	"golisa/internal/cover"
	"golisa/internal/replay"
	"golisa/internal/trace"
)

// --- kernels (simple16) ---------------------------------------------------------

// dot64: 64-element dot product with MAC accumulation.
const dotKernel = `
        LDI B1, 1
        LDI A8, 64        ; count
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

// fir8x16: 8-tap FIR over 16 samples (two nested loops).
const firKernel = `
start:  LDI B1, 1
        LDI A9, 0
        LDI A10, 16
        LDI A3, 200
outer:  CLRACC
        LDI A8, 8
        LDI A4, 0
        LDI A5, 100
        NOP
        ADD A5, A5, A9
inner:  LD  A6, A4, 0
        LD  A7, A5, 0
        ADD A4, A4, B1
        MAC A6, A7
        ADD A5, A5, B1
        SUB A8, A8, B1
        BNZ A8, inner
        NOP
        NOP
        SAT A6
        ST  A6, A3, 0
        ADD A3, A3, B1
        ADD A9, A9, B1
        SUB A10, A10, B1
        BNZ A10, outer
        NOP
        NOP
        HALT
`

// biquad32: direct-form-I biquad over 32 samples; coefficients in B4..B8,
// state in A11/A12 (x delays) and A14/A15 (y delays).
const biquadKernel = `
        LDI B1, 1
        LDI B4, 3         ; b0
        LDI B5, 2         ; b1
        LDI B6, 1         ; b2
        LDI B7, -1        ; a1
        LDI B8, -2        ; a2
        LDI A8, 32        ; count
        LDI A4, 100       ; &x
        LDI A3, 200       ; &y
        LDI A11, 0
        LDI A12, 0
        LDI A14, 0
        LDI A15, 0
loop:   LD  A6, A4, 0     ; x[n]
        CLRACC
        NOP
        MAC A6, B4        ; b0*x
        MAC A11, B5       ; b1*x1
        MAC A12, B6       ; b2*x2
        MAC A14, B7       ; a1*y1
        MAC A15, B8       ; a2*y2
        SAT A7
        ADD A12, A11, B0  ; x2 = x1   (B0 == 0)
        ADD A11, A6, B0   ; x1 = x
        ADD A15, A14, B0  ; y2 = y1
        ADD A14, A7, B0   ; y1 = y
        ST  A7, A3, 0
        ADD A3, A3, B1
        ADD A4, A4, B1
        SUB A8, A8, B1
        BNZ A8, loop
        NOP
        NOP
        HALT
`

// memcpy64: copy 64 words through a register.
const memcpyKernel = `
        LDI B1, 1
        LDI A8, 64
        LDI A4, 100
        LDI A5, 300
loop:   LD  A6, A4, 0
        ADD A4, A4, B1
        NOP
        ST  A6, A5, 0
        ADD A5, A5, B1
        SUB A8, A8, B1
        BNZ A8, loop
        NOP
        NOP
        HALT
`

// sumsq48: sum of squares of 48 elements.
const sumsqKernel = `
        LDI B1, 1
        LDI A8, 48
        LDI A4, 100
        CLRACC
loop:   LD  A6, A4, 0
        ADD A4, A4, B1
        NOP
        MAC A6, A6
        SUB A8, A8, B1
        BNZ A8, loop
        NOP
        NOP
        SAT A0
        HALT
`

var simple16Kernels = []struct {
	name string
	src  string
}{
	{"dot64", dotKernel},
	{"fir8x16", firKernel},
	{"biquad32", biquadKernel},
	{"memcpy64", memcpyKernel},
	{"sumsq48", sumsqKernel},
}

// --- kernels (c62x) ---------------------------------------------------------------

func c62xPacket(insns ...string) string {
	var sb strings.Builder
	for _, in := range insns {
		sb.WriteString(in + "\n")
	}
	for i := len(insns); i < 8; i++ {
		sb.WriteString("|| NOP\n")
	}
	return sb.String()
}

// c62xDotSerial: 16-element dot product, one instruction per packet
// (no instruction-level parallelism).
func c62xDotSerial() string {
	s := c62xPacket("MVK .S1 A3, 1") + // const 1
		c62xPacket("MVK .S1 A8, 16") + // count
		c62xPacket("MVK .S1 A4, 0") + // &a
		c62xPacket("MVK .S1 A5, 100") + // &b
		c62xPacket("MVK .S1 A9, 0") + // acc
		c62xPacket("NOP")
	// loop head at word 48
	s += c62xPacket("LDW .D1 *A4[0], A6") +
		c62xPacket("LDW .D2 *A5[0], A7") +
		c62xPacket("ADD .L1 A4, A4, A3") +
		c62xPacket("ADD .L2 A5, A5, A3") +
		c62xPacket("NOP 1") +
		c62xPacket("MPY .M1 A10, A6, A7") +
		c62xPacket("SUB .L1 A8, A8, A3") +
		c62xPacket("ADD .L1 A9, A9, A10") +
		c62xPacket("BNZ .S1 A8, 48") +
		c62xPacket("NOP") + c62xPacket("NOP") + c62xPacket("NOP") +
		c62xPacket("NOP") + c62xPacket("NOP") +
		c62xPacket("STW .D1 A9, *A0[200]") +
		c62xPacket("NOP") + c62xPacket("NOP") + c62xPacket("NOP") +
		c62xPacket("IDLE") + c62xPacket("NOP")
	return s
}

// c62xDotParallel: same dot product with loads, pointer updates and the
// loop-control packed into parallel execute packets.
func c62xDotParallel() string {
	s := c62xPacket("MVK .S1 A3, 1", "|| MVK .S2 A8, 16") +
		c62xPacket("MVK .S1 A4, 0", "|| MVK .S2 A5, 100", "|| MVK .S1 A9, 0") +
		c62xPacket("NOP")
	// loop head at word 24
	s += c62xPacket("LDW .D1 *A4[0], A6", "|| LDW .D2 *A5[0], A7") +
		c62xPacket("ADD .L1 A4, A4, A3", "|| ADD .L2 A5, A5, A3", "|| SUB .L1 A8, A8, A3") +
		c62xPacket("NOP 1") +
		c62xPacket("MPY .M1 A10, A6, A7") +
		c62xPacket("BNZ .S1 A8, 24") +
		c62xPacket("ADD .L1 A9, A9, A10") + // delay slot 1: accumulate
		c62xPacket("NOP") + c62xPacket("NOP") + c62xPacket("NOP") + c62xPacket("NOP") +
		c62xPacket("STW .D1 A9, *A0[200]") +
		c62xPacket("NOP") + c62xPacket("NOP") + c62xPacket("NOP") +
		c62xPacket("IDLE") + c62xPacket("NOP")
	return s
}

// c62xVecmax: maximum of 16 elements using CMPGT and a conditional branch.
func c62xVecmax() string {
	s := c62xPacket("MVK .S1 A3, 1") +
		c62xPacket("MVK .S1 A8, 16") +
		c62xPacket("MVK .S1 A4, 100") +
		c62xPacket("MVK .S1 A9, -32768") + // running max
		c62xPacket("NOP") + c62xPacket("NOP")
	// loop head at word 48
	s += c62xPacket("LDW .D1 *A4[0], A6") +
		c62xPacket("ADD .L1 A4, A4, A3") +
		c62xPacket("NOP 3") +
		c62xPacket("CMPGT .L1 B2, A6, A9") +
		c62xPacket("BZ .S1 B2, 96") + // skip update
		c62xPacket("NOP") + c62xPacket("NOP") + c62xPacket("NOP") + c62xPacket("NOP") + c62xPacket("NOP") +
		c62xPacket("ADD .L1 A9, A6, A0") + // max = x (word 88)
		// join at word 96
		c62xPacket("SUB .L1 A8, A8, A3") +
		c62xPacket("BNZ .S1 A8, 48") +
		c62xPacket("NOP") + c62xPacket("NOP") + c62xPacket("NOP") + c62xPacket("NOP") + c62xPacket("NOP") +
		c62xPacket("STW .D1 A9, *A0[200]") +
		c62xPacket("NOP") + c62xPacket("NOP") + c62xPacket("NOP") +
		c62xPacket("IDLE") + c62xPacket("NOP")
	return s
}

var c62xKernels = []struct {
	name string
	src  string
}{
	{"dot16-serial", c62xDotSerial()},
	{"dot16-parallel", c62xDotParallel()},
	{"vecmax16", c62xVecmax()},
}

// --- helpers ---------------------------------------------------------------------

func loadMachine(b testing.TB, name string) *golisa.Machine {
	b.Helper()
	m, err := golisa.LoadBuiltin(name)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// prepSim assembles src once and returns a reload function that resets the
// simulator and reloads program + data for the next run.
func prepSim(b testing.TB, m *golisa.Machine, src string, mode golisa.Mode) (*golisa.Simulator, func()) {
	b.Helper()
	s, prog, err := m.AssembleAndLoad(src, mode)
	if err != nil {
		b.Fatal(err)
	}
	pm, err := m.ProgramMemory()
	if err != nil {
		b.Fatal(err)
	}
	reload := func() {
		if err := s.Reset(); err != nil {
			b.Fatal(err)
		}
		if err := s.LoadProgram(pm, prog.Origin, prog.Words); err != nil {
			b.Fatal(err)
		}
		for i := uint64(0); i < 170; i++ {
			_ = s.SetMem("data_mem", i, uint64(i%23+1))
		}
	}
	reload()
	return s, reload
}

func runToHalt(b testing.TB, s *golisa.Simulator, maxSteps uint64) uint64 {
	b.Helper()
	n, err := s.Run(maxSteps)
	if err != nil {
		b.Fatal(err)
	}
	if !s.Halted() {
		b.Fatalf("kernel did not halt within %d steps", maxSteps)
	}
	return n
}

// --- E1: model statistics -----------------------------------------------------------

func BenchmarkModelStats(b *testing.B) {
	for _, name := range []string{"simple16", "c62x"} {
		m := loadMachine(b, name)
		b.Run(name, func(b *testing.B) {
			var st golisa.Stats
			for i := 0; i < b.N; i++ {
				st = m.Stats()
			}
			b.ReportMetric(float64(st.Resources), "resources")
			b.ReportMetric(float64(st.Operations), "operations")
			b.ReportMetric(float64(st.Instructions), "instructions")
			b.ReportMetric(float64(st.Aliases), "aliases")
			b.ReportMetric(float64(st.SourceLines), "lisa-lines")
		})
	}
}

// --- E2: tool generation time (paper §4.1: 30 s on a Sparc Ultra 10) ------------------

func BenchmarkGenerateSimple16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := golisa.LoadBuiltin("simple16"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateC62x(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := golisa.LoadBuiltin("c62x"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: compiled vs interpretive simulation -------------------------------------------

var simModes = []struct {
	name string
	mode golisa.Mode
}{
	{"interpretive", golisa.Interpretive},
	{"compiled", golisa.Compiled},
}

func BenchmarkSimSimple16(b *testing.B) {
	m := loadMachine(b, "simple16")
	for _, k := range simple16Kernels {
		for _, md := range simModes {
			b.Run(k.name+"/"+md.name, func(b *testing.B) {
				s, reload := prepSim(b, m, k.src, md.mode)
				var cycles uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					reload()
					b.StartTimer()
					cycles = runToHalt(b, s, 1_000_000)
				}
				b.ReportMetric(float64(cycles), "cycles/run")
				b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
			})
		}
	}
}

func BenchmarkSimC62x(b *testing.B) {
	m := loadMachine(b, "c62x")
	for _, k := range c62xKernels {
		for _, md := range simModes {
			b.Run(k.name+"/"+md.name, func(b *testing.B) {
				s, reload := prepSim(b, m, k.src, md.mode)
				var cycles uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					reload()
					b.StartTimer()
					cycles = runToHalt(b, s, 1_000_000)
				}
				b.ReportMetric(float64(cycles), "cycles/run")
				b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
			})
		}
	}
}

// TestSpeedupShape asserts the paper's qualitative result: the compiled
// simulation technique is strictly faster than the interpretive one
// (E3's "who wins" shape; see EXPERIMENTS.md for factors).
func TestSpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	m := loadMachine(t, "simple16")
	perMode := map[string]float64{} // seconds per simulated cycle
	const rounds = 30
	for _, md := range simModes {
		s, reload := prepSim(t, m, dotKernel, md.mode)
		var cycles uint64
		start := nowSeconds()
		for i := 0; i < rounds; i++ {
			reload()
			cycles += runToHalt(t, s, 1_000_000)
		}
		perMode[md.name] = (nowSeconds() - start) / float64(cycles)
	}
	t.Logf("seconds/cycle: interpretive=%.3g compiled=%.3g — speedup %.1fx",
		perMode["interpretive"], perMode["compiled"],
		perMode["interpretive"]/perMode["compiled"])
	if perMode["compiled"] >= perMode["interpretive"] {
		t.Errorf("compiled simulation (%.3g s/cycle) not faster than interpretive (%.3g)",
			perMode["compiled"], perMode["interpretive"])
	}
}

// TestKernelsCrossModeEquivalence verifies every benchmark kernel ends in
// identical architectural state under both in-process simulators (experiment E4's
// verification methodology applied to the benchmark suite).
func TestKernelsCrossModeEquivalence(t *testing.T) {
	for _, tc := range []struct {
		model   string
		kernels []struct{ name, src string }
	}{
		{"simple16", toPairs(simple16Kernels)},
		{"c62x", toPairs(c62xKernels)},
	} {
		m := loadMachine(t, tc.model)
		for _, k := range tc.kernels {
			t.Run(tc.model+"/"+k.name, func(t *testing.T) {
				ref, reload := prepSim(t, m, k.src, golisa.Interpretive)
				reload()
				refCycles := runToHalt(t, ref, 1_000_000)
				for _, md := range simModes[1:] {
					s, rl := prepSim(t, m, k.src, md.mode)
					rl()
					cycles := runToHalt(t, s, 1_000_000)
					if cycles != refCycles {
						t.Errorf("%s: %d cycles, interpretive %d", md.name, cycles, refCycles)
					}
					if eq, diff := ref.S.Equal(s.S); !eq {
						t.Errorf("%s: state differs at %s", md.name, diff)
					}
				}
			})
		}
	}
}

func toPairs(in []struct{ name, src string }) []struct{ name, src string } { return in }

// --- E5: SWITCH/CASE flattening ablation -----------------------------------------------

// The flattened model selects the register file at decode time (paper
// Example 6); the dynamic model re-evaluates the side bit in behavior code
// on every execution.
const switchFlattenedModel = `
RESOURCE {
  PROGRAM_COUNTER int pc LATCH;
  CONTROL_REGISTER bit[32] ir;
  REGISTER int A[16];
  REGISTER int B[16];
  REGISTER bit halt;
  PROGRAM_MEMORY bit[32] prog_mem[256];
  PIPELINE pipe = { FE; EX };
}
OPERATION reset { BEHAVIOR { pc = 0; } }
OPERATION main {
  ACTIVATION { if (!halt) { fetch }, pipe.shift() }
}
OPERATION fetch IN pipe.FE {
  BEHAVIOR { ir = prog_mem[pc]; pc = pc + 1; decode(); }
}
OPERATION decode {
  DECLARE { GROUP Instruction = { nop; add; bcl; halt_op }; }
  CODING { ir == Instruction }
  ACTIVATION { Instruction }
}
OPERATION nop { CODING { 0b000000 0bx[26] } SYNTAX { "NOP" } }
OPERATION register {
  DECLARE { GROUP Side = { sa; sb }; LABEL index; }
  CODING { Side index:0bx[4] }
  SWITCH (Side) {
    CASE sa: { SYNTAX { "A" index:#u } EXPRESSION { A[index] } }
    CASE sb: { SYNTAX { "B" index:#u } EXPRESSION { B[index] } }
  }
}
OPERATION sa { CODING { 0b0 } SYNTAX { "" } }
OPERATION sb { CODING { 0b1 } SYNTAX { "" } }
OPERATION add IN pipe.EX {
  DECLARE { GROUP Dest, Src1, Src2 = { register }; }
  CODING { 0b000001 Dest Src2 Src1 0bx[11] }
  SYNTAX { "ADD " Dest ", " Src1 ", " Src2 }
  BEHAVIOR { Dest = Src1 + Src2; }
}
OPERATION bcl IN pipe.EX {
  DECLARE { LABEL target; }
  CODING { 0b000010 target:0bx[16] 0bx[10] }
  SYNTAX { "B " target:#u }
  BEHAVIOR { pc = target; }
}
OPERATION halt_op IN pipe.EX {
  CODING { 0b111111 0bx[26] }
  SYNTAX { "HALT" }
  BEHAVIOR { halt = 1; }
}
`

// switchDynamicModel encodes the same ISA but resolves the register side at
// run time inside BEHAVIOR (no SWITCH flattening, no EXPRESSION folding).
const switchDynamicModel = `
RESOURCE {
  PROGRAM_COUNTER int pc LATCH;
  CONTROL_REGISTER bit[32] ir;
  REGISTER int A[16];
  REGISTER int B[16];
  REGISTER bit halt;
  PROGRAM_MEMORY bit[32] prog_mem[256];
  PIPELINE pipe = { FE; EX };
}
OPERATION reset { BEHAVIOR { pc = 0; } }
OPERATION main {
  ACTIVATION { if (!halt) { fetch }, pipe.shift() }
}
OPERATION fetch IN pipe.FE {
  BEHAVIOR { ir = prog_mem[pc]; pc = pc + 1; decode(); }
}
OPERATION decode {
  DECLARE { GROUP Instruction = { nop; add; bcl; halt_op }; }
  CODING { ir == Instruction }
  ACTIVATION { Instruction }
}
OPERATION nop { CODING { 0b000000 0bx[26] } SYNTAX { "NOP" } }
OPERATION add IN pipe.EX {
  DECLARE { LABEL d, s1, s2; }
  CODING { 0b000001 d:0bx[5] s2:0bx[5] s1:0bx[5] 0bx[11] }
  SYNTAX { "ADDR " d:#u ", " s1:#u ", " s2:#u }
  BEHAVIOR {
    int v1;
    int v2;
    if ((s1 >> 4) == 0) { v1 = A[s1 & 15]; } else { v1 = B[s1 & 15]; }
    if ((s2 >> 4) == 0) { v2 = A[s2 & 15]; } else { v2 = B[s2 & 15]; }
    if ((d >> 4) == 0) { A[d & 15] = v1 + v2; } else { B[d & 15] = v1 + v2; }
  }
}
OPERATION bcl IN pipe.EX {
  DECLARE { LABEL target; }
  CODING { 0b000010 target:0bx[16] 0bx[10] }
  SYNTAX { "B " target:#u }
  BEHAVIOR { pc = target; }
}
OPERATION halt_op IN pipe.EX {
  CODING { 0b111111 0bx[26] }
  SYNTAX { "HALT" }
  BEHAVIOR { halt = 1; }
}
`

func benchSwitchModel(b *testing.B, src, addStmt string) {
	m, err := golisa.LoadMachine("switch-ablation", src)
	if err != nil {
		b.Fatal(err)
	}
	// 64 adds in an infinite loop; run a fixed number of steps.
	var prog strings.Builder
	for i := 0; i < 64; i++ {
		prog.WriteString(addStmt + "\n")
	}
	prog.WriteString("B 0\n")
	s, _, err := m.AssembleAndLoad(prog.String(), golisa.Compiled)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 200; j++ {
			if err := s.RunStep(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(200, "cycles/op")
}

func BenchmarkSwitchFlattened(b *testing.B) {
	benchSwitchModel(b, switchFlattenedModel, "ADD A1, A2, B3")
}

func BenchmarkSwitchDynamic(b *testing.B) {
	benchSwitchModel(b, switchDynamicModel, "ADDR 1, 2, 19")
}

// --- E6: pipeline mechanism cost ----------------------------------------------------

func BenchmarkPipelineOps(b *testing.B) {
	m := loadMachine(b, "c62x")
	// Alternate multicycle NOPs and ALU packets: every NOP exercises
	// stall + re-dispatch machinery.
	var src strings.Builder
	for i := 0; i < 8; i++ {
		src.WriteString(c62xPacket("MVK .S1 A1, 1"))
		src.WriteString(c62xPacket("NOP 2"))
	}
	src.WriteString(c62xPacket("IDLE") + c62xPacket("NOP"))
	s, reload := prepSim(b, m, src.String(), golisa.Compiled)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reload()
		b.StartTimer()
		runToHalt(b, s, 10_000)
	}
}

// --- E7: co-simulation ---------------------------------------------------------------

func BenchmarkCosim(b *testing.B) {
	m := loadMachine(b, "c62x")
	var runway strings.Builder
	for i := 0; i < 100; i++ {
		runway.WriteString(c62xPacket("NOP"))
	}
	src := runway.String() + c62xPacket("IDLE") + c62xPacket("NOP")
	s, prog, err := m.AssembleAndLoad(src, golisa.Compiled)
	if err != nil {
		b.Fatal(err)
	}
	bus, err := cosim.NewBus(s, "data_mem")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := s.Reset(); err != nil {
			b.Fatal(err)
		}
		if err := s.LoadProgram("prog_mem", prog.Origin, prog.Words); err != nil {
			b.Fatal(err)
		}
		k := cosim.New(s)
		k.Attach(cosim.NewTimer(s, "irq", 50))
		k.Attach(cosim.NewOutPort(bus, 100))
		b.StartTimer()
		if _, err := k.Run(10_000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: generated assembler / disassembler --------------------------------------------

func BenchmarkAssemble(b *testing.B) {
	m := loadMachine(b, "simple16")
	a, err := m.NewAssembler()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Assemble(firKernel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDisassemble(b *testing.B) {
	m := loadMachine(b, "simple16")
	a, err := m.NewAssembler()
	if err != nil {
		b.Fatal(err)
	}
	d, err := m.NewDisassembler()
	if err != nil {
		b.Fatal(err)
	}
	prog, err := a.Assemble(firKernel)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range prog.Words {
			if _, err := d.Disassemble(w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func nowSeconds() float64 {
	return float64(time.Now().UnixNano()) / 1e9
}

// --- E9: observability overhead -------------------------------------------------

// BenchmarkObserverOverhead measures the cost of the trace hook sites:
// "detached" runs with no observer (the nil fast path every hook takes in
// an uninstrumented simulation), "metrics" with the per-stage/per-op
// Metrics collector attached. Compare detached against BenchmarkSimSimple16
// to see the price of having the hooks at all.
func BenchmarkObserverOverhead(b *testing.B) {
	m := loadMachine(b, "simple16")
	for _, v := range []struct {
		name string
		obs  func() trace.Observer
	}{
		{"detached", func() trace.Observer { return nil }},
		{"metrics", func() trace.Observer { return trace.NewMetrics() }},
	} {
		b.Run(v.name, func(b *testing.B) {
			s, reload := prepSim(b, m, dotKernel, golisa.Compiled)
			var cycles uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				reload()
				s.SetObserver(v.obs())
				b.StartTimer()
				cycles = runToHalt(b, s, 1_000_000)
			}
			b.ReportMetric(float64(cycles), "cycles/run")
			b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
		})
	}
}

// --- E10: deterministic recording overhead ---------------------------------------

// BenchmarkRecordOverhead measures the cost of lisa-sim -record: a
// replay.Recorder varint-encoding every control step's events (plus
// periodic full-state checkpoints) into an io.Discard-backed stream,
// against the same kernel with no observer attached. The checkpoint
// cadence variants bound the cadence/overhead trade-off documented in
// docs/observability.md.
func BenchmarkRecordOverhead(b *testing.B) {
	m := loadMachine(b, "simple16")
	for _, v := range []struct {
		name  string
		every uint64
	}{
		{"detached", 0},
		{"record-every1024", 1024},
		{"record-every64", 64},
	} {
		b.Run(v.name, func(b *testing.B) {
			s, reload := prepSim(b, m, dotKernel, golisa.Compiled)
			var cycles uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				reload()
				if v.every == 0 {
					s.SetObserver(nil)
				} else {
					s.SetObserver(replay.NewRecorder(s, m.Source, io.Discard, replay.Options{Every: v.every}))
				}
				b.StartTimer()
				cycles = runToHalt(b, s, 1_000_000)
			}
			b.ReportMetric(float64(cycles), "cycles/run")
			b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
		})
	}
}

// --- E11: hazard attribution overhead --------------------------------------------

// BenchmarkAttributionOverhead measures the cost of lisa-sim -analyze:
// the analyze.Analyzer classifying and bucketing every hazard event
// against the same kernel with no observer attached. "detached" is the
// default configuration and must stay indistinguishable from E9's
// detached variant — the attribution engine lives entirely behind the
// Observer seam and adds no cost when absent.
func BenchmarkAttributionOverhead(b *testing.B) {
	m := loadMachine(b, "simple16")
	for _, v := range []struct {
		name string
		obs  func() trace.Observer
	}{
		{"detached", func() trace.Observer { return nil }},
		{"analyzer", func() trace.Observer { return analyze.New() }},
	} {
		b.Run(v.name, func(b *testing.B) {
			s, reload := prepSim(b, m, dotKernel, golisa.Compiled)
			var cycles uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				reload()
				s.SetObserver(v.obs())
				b.StartTimer()
				cycles = runToHalt(b, s, 1_000_000)
			}
			b.ReportMetric(float64(cycles), "cycles/run")
			b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
		})
	}
}

// --- E12: model-coverage overhead ------------------------------------------------

// BenchmarkCoverageOverhead measures the cost of lisa-sim -cov: the
// coverage collector setting one bit per decode/exec/activation/hazard
// event against the same kernel with no observer attached. "detached" is
// the default configuration: the collector lives behind the Observer
// seam and the nil-gated OnDecoded hook, so absent coverage must cost
// nothing measurable.
func BenchmarkCoverageOverhead(b *testing.B) {
	m := loadMachine(b, "simple16")
	for _, v := range []struct {
		name   string
		attach func(s *golisa.Simulator)
	}{
		{"detached", func(s *golisa.Simulator) {
			s.OnDecoded = nil
			s.SetObserver(nil)
		}},
		{"collector", func(s *golisa.Simulator) {
			col := cover.NewCollector(cover.NewMap(m.Model))
			s.OnDecoded = col.MarkDecoded
			s.SetObserver(col)
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			s, reload := prepSim(b, m, dotKernel, golisa.Compiled)
			var cycles uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				reload()
				v.attach(s)
				b.StartTimer()
				cycles = runToHalt(b, s, 1_000_000)
			}
			b.ReportMetric(float64(cycles), "cycles/run")
			b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
		})
	}
}
