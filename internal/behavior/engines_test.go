package behavior_test

import (
	"fmt"
	"os/exec"
	"strings"
	"testing"

	"golisa/internal/behavior"
	"golisa/internal/core"
	"golisa/internal/cosim"
	"golisa/internal/gosim"
	"golisa/internal/model"
	"golisa/internal/sim"
)

// signednessMachine wraps each signedness body in its own instruction of
// an unpipelined fetch/decode machine over compileRegs, and returns the
// machine plus a program that executes every body once, in table order,
// and halts.
func signednessMachine(t *testing.T) (mc *core.Machine, prog string) {
	t.Helper()
	var src, group, text strings.Builder
	src.WriteString(behavior.CompileRegs)
	src.WriteString(`
RESOURCE {
  PROGRAM_COUNTER int pc;
  CONTROL_REGISTER bit[16] ir;
  REGISTER bit halt;
  PROGRAM_MEMORY bit[16] prog_mem[0x100];
}
OPERATION reset { BEHAVIOR { pc = 0; halt = 0; } }
OPERATION main { BEHAVIOR { } ACTIVATION { if (!halt) { fetch } } }
OPERATION fetch { BEHAVIOR { ir = prog_mem[pc]; pc = pc + 1; decode(); } }
OPERATION i_halt { CODING { 0b11111111 0bx[8] } SYNTAX { "HALT" } BEHAVIOR { halt = 1; } }
`)
	for i, body := range behavior.SignednessBodies {
		fmt.Fprintf(&src, "OPERATION b%d { CODING { 0b%08b 0bx[8] } SYNTAX { \"B%d\" } BEHAVIOR { %s } }\n", i, i, i, body)
		fmt.Fprintf(&group, "b%d; ", i)
		fmt.Fprintf(&text, "B%d\n", i)
	}
	fmt.Fprintf(&src, "OPERATION decode { DECLARE { GROUP Instruction = { %si_halt }; } CODING { ir == Instruction } ACTIVATION { Instruction } }\n", group.String())
	text.WriteString("HALT\n")
	mc, err := core.LoadMachine("signedness", src.String())
	if err != nil {
		t.Fatal(err)
	}
	return mc, text.String()
}

// TestSignednessBodiesOnGosim runs the signedness table on the native
// runner gosim builds: its state after every control step must equal the
// interpretive engine's, and so must the halt.
func TestSignednessBodiesOnGosim(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH: native runner not checked")
	}
	mc, src := signednessMachine(t)
	ref, prog, err := mc.AssembleAndLoad(src, sim.Interpretive)
	if err != nil {
		t.Fatal(err)
	}
	p, err := gosim.Compile(mc, prog)
	if err != nil {
		t.Fatalf("gosim.Compile: %v", err)
	}
	var states []*model.State
	for !ref.Halted() {
		if len(states) > len(behavior.SignednessBodies) {
			t.Fatal("the interpretive engine runs past the program's halt")
		}
		if err := ref.RunStep(); err != nil {
			t.Fatal(err)
		}
		states = append(states, ref.S.Clone())
	}

	cache := gosim.NewCache(t.TempDir())
	defer cache.Close()
	var n int
	res, err := gosim.NewEngine(p, cache, gosim.Options{
		OnCycleState: func(cycle uint64, sc []uint64, arr [][]uint64) {
			if n >= len(states) {
				t.Errorf("native runner reported cycle %d past the interpretive run", cycle)
				return
			}
			if eq, diff := p.StateFrom(sc, arr).Equal(states[n]); !eq {
				// Instruction k retires in control step k+1.
				what := "the halt"
				if n < len(behavior.SignednessBodies) {
					what = fmt.Sprintf("%q", behavior.SignednessBodies[n])
				}
				t.Errorf("native runner diverges from the interpretive engine at %s after %s", diff, what)
			}
			n++
		},
	}).Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(states) || !res.Halted {
		t.Fatalf("native run: %d cycles, halted %v; interpretive: %d cycles, halted", n, res.Halted, len(states))
	}
}

// TestSignednessBodiesOnCompiledSim runs the signedness table on sim's
// compiled engine in lockstep with the interpretive engine: the state
// must agree after every control step, and so must the halt.
func TestSignednessBodiesOnCompiledSim(t *testing.T) {
	mc, src := signednessMachine(t)
	ref, _, err := mc.AssembleAndLoad(src, sim.Interpretive)
	if err != nil {
		t.Fatal(err)
	}
	cs, _, err := mc.AssembleAndLoad(src, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	ls := cosim.NewLockstep(cs, ref)
	for step := uint64(0); !ref.Halted(); step++ {
		if step > uint64(len(behavior.SignednessBodies)) {
			t.Fatal("the interpretive engine runs past the program's halt")
		}
		if err := cs.RunStep(); err != nil {
			t.Fatal(err)
		}
		ls.Tick(step)
		if ls.Diverged {
			t.Fatalf("compiled engine diverges at step %d: %s", ls.Cycle, ls.Detail)
		}
	}
	if !cs.Halted() {
		t.Fatal("compiled engine did not halt with the interpretive engine")
	}
}
