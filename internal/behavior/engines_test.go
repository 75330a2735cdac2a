package behavior_test

import (
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"testing"

	"golisa/internal/behavior"
	"golisa/internal/core"
	"golisa/internal/gosim"
	"golisa/internal/model"
	"golisa/internal/sim"
)

// gosimUnsupported lists the signedness bodies outside gosim's supported
// class, with the reason. Programs reaching them fail gosim.Compile and
// run on the behavior engines instead.
var gosimUnsupported = map[int]string{
	12: "min/max over operands of different width or signedness, whose result width depends on the values",
}

// signednessMachine wraps each signedness body in its own instruction of
// an unpipelined fetch/decode machine over compileRegs, and returns the
// machine plus a program that executes the bodies gosim supports once, in
// table order, and halts.
func signednessMachine(t *testing.T) (mc *core.Machine, prog string, bodies []int) {
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
		if _, skip := gosimUnsupported[i]; !skip {
			fmt.Fprintf(&text, "B%d\n", i)
			bodies = append(bodies, i)
		}
	}
	fmt.Fprintf(&src, "OPERATION decode { DECLARE { GROUP Instruction = { %si_halt }; } CODING { ir == Instruction } ACTIVATION { Instruction } }\n", group.String())
	text.WriteString("HALT\n")
	mc, err := core.LoadMachine("signedness", src.String())
	if err != nil {
		t.Fatal(err)
	}
	return mc, text.String(), bodies
}

// TestSignednessBodiesOnGosim runs the signedness table through gosim:
// its IR machine in lockstep with the interpretive simulator, and, when
// the Go toolchain is on PATH, the built native runner, whose per-cycle
// states must equal the IR machine's. The bodies in gosimUnsupported must
// still be refused by gosim.Compile.
func TestSignednessBodiesOnGosim(t *testing.T) {
	mc, src, bodies := signednessMachine(t)
	for i := range gosimUnsupported {
		a, err := mc.NewAssembler()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := a.Assemble(fmt.Sprintf("B%d\nHALT\n", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gosim.Compile(mc, prog); !errors.Is(err, gosim.ErrUnsupported) {
			t.Errorf("body %d compiles on gosim now (err %v): move it back into the lockstep program", i, err)
		}
	}
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
		if m.Cycles() > uint64(len(bodies)) {
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
			if k := int(m.Cycles()) - 1; k < len(bodies) {
				what = fmt.Sprintf("%q", behavior.SignednessBodies[bodies[k]])
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
