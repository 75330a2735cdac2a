package core

import (
	"strings"
	"testing"

	"golisa/internal/sim"
)

func loadC62x(t *testing.T) *Machine {
	t.Helper()
	m, err := LoadBuiltin("c62x")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// packet renders one full-rate fetch packet: the first instruction followed
// by parallel NOPs padding to 8 words, so every fetch packet is a single
// execute packet and the machine runs at one packet per cycle.
func packet(insns ...string) string {
	var sb strings.Builder
	for _, in := range insns {
		sb.WriteString(in)
		sb.WriteString("\n")
	}
	for i := len(insns); i < 8; i++ {
		sb.WriteString("|| NOP\n")
	}
	return sb.String()
}

// drain appends full-rate NOP packets so in-flight E-stage results commit
// before IDLE halts the machine.
func drain(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(packet("NOP"))
	}
	return sb.String()
}

func runC62x(t *testing.T, m *Machine, src string, mode sim.Mode) *sim.Simulator {
	t.Helper()
	s, _, err := m.AssembleAndLoad(src, mode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(100000); err != nil {
		t.Fatal(err)
	}
	if !s.Halted() {
		t.Fatal("program did not halt")
	}
	return s
}

func TestC62xSerialALU(t *testing.T) {
	m := loadC62x(t)
	src := `
    MVK .S1 A1, 6
    MVK .S1 A2, 7
    NOP
    NOP
    ADD .L1 A3, A1, A2
    SUB .L2 B1, A2, A1
    AND .L1 B2, A1, A2
    CMPGT .L1 B3, A2, A1
` + drain(2) + packet("IDLE") + drain(1)
	for _, name := range []string{"interpretive", "compiled", "compiled+prebound"} {
		mode, _ := sim.ParseMode(name)
		t.Run(name, func(t *testing.T) {
			s := runC62x(t, m, src, mode)
			if got := regA(t, s, 3); got != 13 {
				t.Errorf("A3 = %d, want 13", got)
			}
			if got := regB(t, s, 1); got != 1 {
				t.Errorf("B1 = %d", got)
			}
			if got := regB(t, s, 2); got != 6 {
				t.Errorf("B2 = %d", got)
			}
			if got := regB(t, s, 3); got != 1 {
				t.Errorf("B3 = %d (CMPGT)", got)
			}
		})
	}
}

func TestC62xParallelExecutePacket(t *testing.T) {
	// Eight instructions in one fetch packet with p-bits all execute in the
	// same cycle (one execute packet).
	m := loadC62x(t)
	parallel := packet(
		"MVK .S1 A1, 1",
		"|| MVK .S2 A2, 2",
		"|| MVK .S1 A3, 3",
		"|| MVK .S2 A4, 4",
		"|| MVK .S1 A5, 5",
		"|| MVK .S2 A6, 6",
		"|| MVK .S1 A7, 7",
		"|| MVK .S2 A8, 8",
	) + packet("IDLE") + drain(1)
	serial := `
    MVK .S1 A1, 1
    MVK .S2 A2, 2
    MVK .S1 A3, 3
    MVK .S2 A4, 4
    MVK .S1 A5, 5
    MVK .S2 A6, 6
    MVK .S1 A7, 7
    MVK .S2 A8, 8
` + packet("IDLE") + drain(1)

	sp := runC62x(t, m, parallel, sim.Compiled)
	ss := runC62x(t, m, serial, sim.Compiled)
	for i := uint64(1); i <= 8; i++ {
		if got := regA(t, sp, i); got != int64(i) {
			t.Errorf("parallel: A%d = %d", i, got)
		}
		if got := regA(t, ss, i); got != int64(i) {
			t.Errorf("serial: A%d = %d", i, got)
		}
	}
	// The serial version dispatches one instruction per cycle: 7 extra
	// cycles versus the fully parallel packet.
	dp, ds := sp.Step(), ss.Step()
	if ds != dp+7 {
		t.Errorf("serial %d cycles, parallel %d: want exactly 7 more", ds, dp)
	}
}

func TestC62xBranchFiveDelaySlots(t *testing.T) {
	// Full-rate code: a taken branch resolves in DC; exactly the 5 fetch
	// packets already in the fetch pipeline execute (the TMS320C62xx's 5
	// delay slots), then execution continues at the target.
	m := loadC62x(t)
	src := packet("B .S1 56") + // packet 0 (words 0..7)
		packet("MVK .S1 A1, 1") + // packet 1: delay slot 1
		packet("MVK .S1 A2, 2") + // packet 2: delay slot 2
		packet("MVK .S1 A3, 3") + // packet 3: delay slot 3
		packet("MVK .S1 A4, 4") + // packet 4: delay slot 4
		packet("MVK .S1 A5, 5") + // packet 5: delay slot 5
		packet("MVK .S1 A9, 99") + // packet 6 (words 48..55): must be skipped
		packet("MVK .S1 A6, 6") + // packet 7 (words 56..): branch target
		packet("IDLE") + drain(1)
	s := runC62x(t, m, src, sim.Compiled)
	for i, want := range []int64{1, 2, 3, 4, 5, 6} {
		if got := regA(t, s, uint64(i+1)); got != want {
			t.Errorf("A%d = %d, want %d (delay slot %d)", i+1, got, want, i+1)
		}
	}
	if got := regA(t, s, 9); got != 0 {
		t.Errorf("A9 = %d, want 0 (beyond the 5 delay slots)", got)
	}
}

func TestC62xMultiplyOneDelaySlot(t *testing.T) {
	m := loadC62x(t)
	src := packet("MVK .S1 A1, 6") +
		packet("MVK .S1 A2, 7") +
		packet("MPY .M1 A3, A1, A2") + // result in E2
		packet("ADD .L1 A4, A3, A0") + // delay slot: old A3 (0)
		packet("ADD .L1 A5, A3, A0") + // sees 42
		drain(2) + packet("IDLE") + drain(1)
	s := runC62x(t, m, src, sim.Interpretive)
	if got := regA(t, s, 3); got != 42 {
		t.Errorf("A3 = %d, want 42", got)
	}
	if got := regA(t, s, 4); got != 0 {
		t.Errorf("A4 = %d, want 0 (multiply delay slot)", got)
	}
	if got := regA(t, s, 5); got != 42 {
		t.Errorf("A5 = %d, want 42", got)
	}
}

func TestC62xLoadFourDelaySlots(t *testing.T) {
	m := loadC62x(t)
	src := packet("MVK .S1 A1, 5") +
		packet("NOP") +
		packet("LDW .D1 *A1[0], A2") + // result in E5
		packet("ADD .L1 A3, A2, A0") + // delay 1
		packet("ADD .L1 A4, A2, A0") + // delay 2
		packet("ADD .L1 A5, A2, A0") + // delay 3
		packet("ADD .L1 A6, A2, A0") + // delay 4
		packet("ADD .L1 A7, A2, A0") + // sees the loaded value
		drain(2) + packet("IDLE") + drain(1)
	s, _, err := m.AssembleAndLoad(src, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetMem("data_mem", 5, 42); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(100000); err != nil {
		t.Fatal(err)
	}
	if got := regA(t, s, 2); got != 42 {
		t.Errorf("A2 = %d, want 42", got)
	}
	for i := uint64(3); i <= 6; i++ {
		if got := regA(t, s, i); got != 0 {
			t.Errorf("A%d = %d, want 0 (load delay slot)", i, got)
		}
	}
	if got := regA(t, s, 7); got != 42 {
		t.Errorf("A7 = %d, want 42", got)
	}
}

func TestC62xStoreCommitsInE3(t *testing.T) {
	m := loadC62x(t)
	src := packet("MVK .S1 A1, 9") +
		packet("MVK .S1 A2, 123") +
		packet("NOP") +
		packet("STW .D1 A2, *A1[2]") +
		drain(4) + packet("IDLE") + drain(1)
	s := runC62x(t, m, src, sim.Compiled)
	v, err := s.Mem("data_mem", 11)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 123 {
		t.Errorf("data_mem[11] = %d, want 123", v.Int())
	}
}

func TestC62xMulticycleNOPStalls(t *testing.T) {
	// NOP n idles dispatch for n extra cycles: total cycle count grows by
	// exactly n versus NOP 0 (paper Example 5 mechanism).
	m := loadC62x(t)
	mk := func(n string) string {
		return packet("MVK .S1 A1, 1") +
			packet("NOP "+n) +
			packet("MVK .S1 A2, 2") +
			packet("IDLE") + drain(1)
	}
	base := runC62x(t, m, mk("0"), sim.Compiled)
	stalled := runC62x(t, m, mk("5"), sim.Compiled)
	if got := regA(t, stalled, 2); got != 2 {
		t.Errorf("A2 = %d after stall", got)
	}
	d := stalled.Step() - base.Step()
	if d != 5 {
		t.Errorf("NOP 5 added %d cycles, want exactly 5", d)
	}
}

func TestC62xMVKHBuildsConstants(t *testing.T) {
	m := loadC62x(t)
	src := packet("MVK .S1 A1, 0x1234") +
		packet("MVKH .S1 A1, 0xdead") +
		drain(1) + packet("IDLE") + drain(1)
	s := runC62x(t, m, src, sim.Compiled)
	v, err := s.Mem("A", 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Uint() != 0xdead1234 {
		t.Errorf("A1 = %#x, want 0xdead1234", v.Uint())
	}
}

func TestC62xSaturatingOps(t *testing.T) {
	m := loadC62x(t)
	src := packet("MVK .S1 A1, 0x7fff") +
		packet("MVKH .S1 A1, 0x7fff") + // A1 = 0x7fff7fff
		packet("NOP") +
		packet("SADD .L1 A2, A1, A1") + // saturates to 0x7fffffff
		packet("SMPY .M1 A3, A1, A1") + // (0x7fff*0x7fff)<<1
		drain(2) + packet("IDLE") + drain(1)
	s := runC62x(t, m, src, sim.Interpretive)
	v, _ := s.Mem("A", 2)
	if v.Uint() != 0x7fffffff {
		t.Errorf("SADD: A2 = %#x", v.Uint())
	}
	v, _ = s.Mem("A", 3)
	if v.Int() != int64(0x7fff*0x7fff)<<1 {
		t.Errorf("SMPY: A3 = %#x", v.Uint())
	}
}

func TestC62xLoopBNZ(t *testing.T) {
	// Counted loop at full rate. The branch has 5 delay-slot packets; the
	// loop body lives in them.
	m := loadC62x(t)
	src := packet("MVK .S1 A1, 10") + // counter, packet at 0
		packet("MVK .S1 A2, 0") + // sum
		packet("MVK .S1 A3, 1") + // constant 1
		packet("NOP") +
		packet("NOP") +
		// loop head at word 40 (packet 5)
		packet("BNZ .S1 A1, 40") +
		packet("ADD .L1 A2, A2, A1") + // delay 1: sum += counter
		packet("SUB .L1 A1, A1, A3") + // delay 2: counter--
		packet("NOP") + // delay 3
		packet("NOP") + // delay 4
		packet("NOP") + // delay 5
		// fallthrough when counter == 0
		packet("IDLE") + drain(1)
	s := runC62x(t, m, src, sim.Compiled)
	// BNZ reads A1 in DC before the SUB in its delay slots: iterations run
	// with A1 = 10..1, and the final pass (A1 == 0 at the BNZ) falls
	// through. Sum = 10+9+...+1 = 55... but note the BNZ for iteration k
	// tests the counter before that iteration's SUB. Trace: the loop exits
	// when BNZ sees 0, and ADD/SUB in the delay slots run once more.
	v, _ := s.Mem("A", 2)
	if v.Int() != 55 {
		t.Errorf("sum = %d, want 55", v.Int())
	}
	v, _ = s.Mem("A", 1)
	if v.Int() != -1 {
		t.Errorf("counter = %d, want -1 (delay-slot SUB after final BNZ)", v.Int())
	}
}

func TestC62xInterruptRoundTrip(t *testing.T) {
	m := loadC62x(t)
	// Main loop at 0 spins; ISR at word 64 sets A15 and returns.
	src := packet("B .S1 0") + // self-loop (5 delay packets follow)
		packet("NOP") + packet("NOP") + packet("NOP") + packet("NOP") + packet("NOP") +
		packet("NOP") + packet("NOP") + // words 48..63
		packet("MVK .S1 A15, 170") + // ISR at word 64
		packet("IRET") +
		packet("NOP") + packet("NOP") + packet("NOP") + packet("NOP") + packet("NOP")
	s, _, err := m.AssembleAndLoad(src, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetScalar("isr_vector", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(30); err != nil {
		t.Fatal(err)
	}
	if err := s.SetScalar("irq", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(60); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Mem("A", 15)
	if v.Int() != 170 {
		t.Errorf("A15 = %d, want 170 (ISR did not run)", v.Int())
	}
	irq, _ := s.Scalar("irq")
	if irq.Bool() {
		t.Error("irq line not cleared")
	}
	ie, _ := s.Scalar("ie")
	if !ie.Bool() {
		t.Error("interrupts not re-enabled after IRET")
	}
}

func TestC62xProgramMemoryWaitStates(t *testing.T) {
	// The same program on a machine with 1 program-memory wait state takes
	// strictly more cycles.
	src0 := loadC62x(t).Source
	fast, err := LoadMachine("c62x-fast", src0)
	if err != nil {
		t.Fatal(err)
	}
	slowSrc := strings.Replace(src0, "PROGRAM_MEMORY bit[32] prog_mem[0x4000] WAIT 0;",
		"PROGRAM_MEMORY bit[32] prog_mem[0x4000] WAIT 1;", 1)
	slow, err := LoadMachine("c62x-slow", slowSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog := packet("MVK .S1 A1, 7") + packet("NOP") + packet("IDLE") + drain(1)
	sf := runC62x(t, fast, prog, sim.Compiled)
	ss := runC62x(t, slow, prog, sim.Compiled)
	if got := regA(t, ss, 1); got != 7 {
		t.Errorf("slow machine A1 = %d", got)
	}
	if ss.Step() <= sf.Step() {
		t.Errorf("wait states did not slow the machine: %d vs %d cycles", ss.Step(), sf.Step())
	}
}

func TestC62xCrossSimulatorEquivalence(t *testing.T) {
	m := loadC62x(t)
	src := packet("MVK .S1 A1, 10") +
		packet("MVK .S1 A2, 0") +
		packet("MVK .S1 A3, 1") +
		packet("NOP") +
		packet("NOP") +
		packet("BNZ .S1 A1, 40") +
		packet("ADD .L1 A2, A2, A1", "|| MPY .M1 A4, A1, A1") +
		packet("SUB .L1 A1, A1, A3") +
		packet("STW .D1 A2, *A0[100]") +
		packet("NOP") +
		packet("NOP") +
		packet("IDLE") + drain(1)
	ref := runC62x(t, m, src, sim.Interpretive)
	mode := sim.Compiled
	s := runC62x(t, m, src, mode)
	if eq, diff := ref.S.Equal(s.S); !eq {
		t.Errorf("%v differs from interpretive at %s", mode, diff)
	}
	if s.Step() != ref.Step() {
		t.Errorf("%v cycles %d != %d", mode, s.Step(), ref.Step())
	}
}

func TestC62xMixedExecutePacketsInOneFetchPacket(t *testing.T) {
	// A fetch packet holding two execute packets (4+4) dispatches over two
	// cycles with the fetch pipeline stalled in between.
	m := loadC62x(t)
	mixed := packet(
		"MVK .S1 A1, 1",
		"|| MVK .S2 A2, 2",
		"|| MVK .S1 A3, 3",
		"|| MVK .S2 A4, 4",
		"MVK .S1 A5, 5", // second execute packet
		"|| MVK .S2 A6, 6",
		"|| MVK .S1 A7, 7",
		"|| MVK .S2 A8, 8",
	) + packet("IDLE") + drain(1)
	s := runC62x(t, m, mixed, sim.Compiled)
	for i := uint64(1); i <= 8; i++ {
		if got := regA(t, s, i); got != int64(i) {
			t.Errorf("A%d = %d", i, got)
		}
	}
	full := packet(
		"MVK .S1 A1, 1",
		"|| MVK .S2 A2, 2",
		"|| MVK .S1 A3, 3",
		"|| MVK .S2 A4, 4",
		"|| MVK .S1 A5, 5",
		"|| MVK .S2 A6, 6",
		"|| MVK .S1 A7, 7",
		"|| MVK .S2 A8, 8",
	) + packet("IDLE") + drain(1)
	sf := runC62x(t, m, full, sim.Compiled)
	if s.Step() != sf.Step()+1 {
		t.Errorf("two execute packets should cost exactly one extra cycle: %d vs %d", s.Step(), sf.Step())
	}
}

func TestC62xStats(t *testing.T) {
	m := loadC62x(t)
	st := m.Stats()
	if st.Instructions < 28 {
		t.Errorf("instructions = %d, want >= 28", st.Instructions)
	}
	if st.Aliases != 4 {
		t.Errorf("aliases = %d, want 4", st.Aliases)
	}
	if st.Resources < 20 {
		t.Errorf("resources = %d", st.Resources)
	}
	if st.Pipelines != 2 || st.PipelineStages != 11 {
		t.Errorf("pipelines: %+v", st)
	}
}

func TestC62xDisassemblerRoundTrip(t *testing.T) {
	m := loadC62x(t)
	a, _ := m.NewAssembler()
	d, _ := m.NewDisassembler()
	stmts := []string{
		"ADD .L1 A1, A2, A3",
		"|| SUB .L2 B1, B2, B3",
		"CMPEQ .L1 A9, B9, A0",
		"SADD .L2 B5, B6, B7",
		"ABS .L1 A4, B4",
		"SHL .S1 A1, A2, A3",
		"MVK .S2 B0, -17",
		"MVKH .S1 A1, 0xffff",
		"B .S1 1024",
		"BNZ .S2 B0, 48",
		"MPY .M1 A3, A1, A2",
		"SMPY .M2 B3, B1, B2",
		"LDW .D1 *A5[3], A1",
		"STW .D2 B1, *B5[7]",
		"NOP 4",
		"NOP",
		"IDLE",
		"IRET",
	}
	for _, stmt := range stmts {
		w, err := a.AssembleStatement(stmt)
		if err != nil {
			t.Errorf("assemble %q: %v", stmt, err)
			continue
		}
		text, err := d.Disassemble(w)
		if err != nil {
			t.Errorf("disassemble %q (%#x): %v", stmt, w, err)
			continue
		}
		w2, err := a.AssembleStatement(text)
		if err != nil {
			t.Errorf("reassemble %q: %v", text, err)
			continue
		}
		if w2 != w {
			t.Errorf("roundtrip %q → %q: %#x != %#x", stmt, text, w2, w)
		}
	}
}

func TestC62xBitFieldInstructions(t *testing.T) {
	m := loadC62x(t)
	src := packet("MVK .S1 A1, 0x1234") +
		packet("MVKH .S1 A1, 0xdead") + // A1 = 0xdead1234
		packet("NOP") +
		packet("EXT .S1 A2, A1, 8, 24") + // sign-extend bits 23..16 (0xad → negative)
		packet("EXTU .S1 A3, A1, 8, 24") + // zero-extend the same field
		packet("MVK .S1 A4, 1") +
		packet("NOP") +
		packet("NORM .L1 A5, A4") + // 1 has 30 redundant sign bits
		packet("MVK .S1 A6, -1") +
		packet("NOP") +
		packet("NORM .L1 A7, A6") + // -1: 31 redundant sign bits
		packet("NORM .L1 A8, A0") + // 0: defined as 31
		drain(2) + packet("IDLE") + drain(1)
	s := runC62x(t, m, src, sim.Compiled)
	if got := regA(t, s, 2); got != -83 { // 0xad sign-extended from 8 bits
		t.Errorf("EXT = %d, want -83", got)
	}
	if got := regA(t, s, 3); got != 0xad {
		t.Errorf("EXTU = %d, want 0xad", got)
	}
	if got := regA(t, s, 5); got != 30 {
		t.Errorf("NORM 1 = %d, want 30", got)
	}
	if got := regA(t, s, 7); got != 31 {
		t.Errorf("NORM -1 = %d, want 31", got)
	}
	if got := regA(t, s, 8); got != 31 {
		t.Errorf("NORM 0 = %d, want 31", got)
	}
}
