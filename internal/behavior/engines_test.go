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

// TestSignednessBodiesOnGosim runs the signedness table through gosim:
// its IR machine in lockstep with the interpretive simulator, and, when
// the Go toolchain is on PATH, the built native runner, whose per-cycle
// states must equal the IR machine's.
func TestSignednessBodiesOnGosim(t *testing.T) {
	mc, src := signednessMachine(t)
	ref, prog, err := mc.AssembleAndLoad(src, sim.Interpretive)
	if err != nil {
		t.Fatal(err)
	}
	p, err := gosim.Compile(mc, prog)
	if err != nil {
		t.Fatalf("gosim.Compile: %v", err)
	}
	m := p.NewMachine()
	var irStates []*model.State
	for !ref.Halted() {
		if m.Cycles() > uint64(len(behavior.SignednessBodies)) {
			t.Fatal("the interpretive engine runs past the program's halt")
		}
		if err := ref.RunStep(); err != nil {
			t.Fatal(err)
		}
		m.Step()
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		st := m.State()
		if eq, diff := ref.S.Equal(st); !eq {
			// Instruction k retires in control step k+1.
			what := "the halt"
			if k := int(m.Cycles()) - 1; k < len(behavior.SignednessBodies) {
				what = fmt.Sprintf("%q", behavior.SignednessBodies[k])
			}
			t.Fatalf("IR diverges from the interpretive engine at %s after %s", diff, what)
		}
		irStates = append(irStates, st)
	}
	if !m.Halted() {
		t.Fatal("IR machine did not halt with the interpretive engine")
	}

	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH: native runner not checked")
	}
	cache := gosim.NewCache(t.TempDir())
	defer cache.Close()
	var n int
	res, err := gosim.NewEngine(p, cache, gosim.Options{
		OnCycleState: func(cycle uint64, sc []uint64, arr [][]uint64) {
			if n >= len(irStates) {
				t.Errorf("native runner reported cycle %d past the IR run", cycle)
				return
			}
			if eq, diff := irStates[n].Equal(p.StateFrom(sc, arr)); !eq {
				t.Errorf("native runner diverges from the IR at %s in cycle %d", diff, cycle)
			}
			n++
		},
	}).Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Native {
		t.Fatalf("native runner did not run: %s", res.Fallback)
	}
	if n != len(irStates) || !res.Halted {
		t.Fatalf("native run: %d cycles, halted %v; IR: %d cycles, halted", n, res.Halted, len(irStates))
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
