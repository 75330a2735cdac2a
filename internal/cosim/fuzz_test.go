package cosim

import (
	"encoding/binary"
	"testing"

	"golisa/internal/core"
	"golisa/internal/sim"
)

// fuzzModels are the models FuzzCompiledLockstep drives, indexed by the
// fuzzed selector.
var fuzzModels = []string{"simple16", "c62x"}

// fuzzMaxSteps bounds one fuzzed run.
const fuzzMaxSteps = 200

// FuzzCompiledLockstep turns arbitrary bytes into a program image (four
// little-endian bytes per word, at most 64 words) for simple16 or c62x and
// runs it for a bounded number of control steps on the compiled engine,
// with the interpretive engine in lockstep. The two must hold the same
// state after every step, fail at the same step, and halt together. The
// seeds are the stock lockstep kernels.
func FuzzCompiledLockstep(f *testing.F) {
	machines := make([]*core.Machine, len(fuzzModels))
	for i, name := range fuzzModels {
		m, err := core.LoadBuiltin(name)
		if err != nil {
			f.Fatal(err)
		}
		machines[i] = m
		a, err := m.NewAssembler()
		if err != nil {
			f.Fatal(err)
		}
		prog, err := a.Assemble(lockstepPrograms[name])
		if err != nil {
			f.Fatal(err)
		}
		var img []byte
		for _, w := range prog.Words {
			img = binary.LittleEndian.AppendUint32(img, uint32(w))
		}
		f.Add(uint8(i), img)
	}
	f.Fuzz(func(t *testing.T, which uint8, img []byte) {
		m := machines[int(which)%len(machines)]
		var words []uint64
		for i := 0; i+4 <= len(img) && len(words) < 64; i += 4 {
			words = append(words, uint64(binary.LittleEndian.Uint32(img[i:])))
		}
		pm, err := m.ProgramMemory()
		if err != nil {
			t.Fatal(err)
		}
		load := func(mode sim.Mode) *sim.Simulator {
			s, err := m.NewSimulator(mode)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.LoadProgram(pm, 0, words); err != nil {
				t.Fatal(err)
			}
			return s
		}
		cpu, ref := load(sim.Compiled), load(sim.Interpretive)
		ls := NewLockstep(cpu, ref)
		for step := uint64(0); step < fuzzMaxSteps && !cpu.Halted(); step++ {
			if err := cpu.RunStep(); err != nil {
				if rerr := ref.RunStep(); rerr == nil {
					t.Fatalf("step %d: compiled engine failed (%v), interpretive engine did not", step, err)
				}
				return
			}
			ls.Tick(step)
			if ls.Diverged {
				t.Fatalf("step %d: engines diverge: %s", ls.Cycle, ls.Detail)
			}
		}
		if cpu.Halted() != ref.Halted() {
			t.Fatalf("halt disagreement: compiled %v, interpretive %v", cpu.Halted(), ref.Halted())
		}
	})
}
