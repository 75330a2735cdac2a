package golisa_test

import (
	"fmt"
	"log"
	"strings"
	"testing"

	"golisa"
)

// ExampleLoadBuiltin demonstrates the complete tool flow: one embedded LISA
// description generates the assembler and the cycle-accurate simulator.
func ExampleLoadBuiltin() {
	machine, err := golisa.LoadBuiltin("simple16")
	if err != nil {
		log.Fatal(err)
	}
	sim, _, err := machine.AssembleAndLoad(`
	    LDI A1, 6
	    LDI A2, 7
	    NOP
	    MPY A3, A1, A2
	    HALT
	`, golisa.Compiled)
	if err != nil {
		log.Fatal(err)
	}
	steps, err := sim.Run(1000)
	if err != nil {
		log.Fatal(err)
	}
	a3, _ := sim.Mem("A", 3)
	fmt.Printf("A3 = %d after %d cycles\n", a3.Int(), steps)
	// Output: A3 = 42 after 7 cycles
}

// ExampleLoadMachine loads a user-written LISA description from source text.
func ExampleLoadMachine() {
	machine, err := golisa.LoadMachine("counter", `
RESOURCE {
  REGISTER int n;
  REGISTER bit halt;
}
OPERATION main {
  BEHAVIOR {
    n = n + 1;
    if (n == 5) { halt = 1; }
  }
}
`)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := machine.NewSimulator(golisa.Interpretive)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sim.Run(100); err != nil {
		log.Fatal(err)
	}
	n, _ := sim.Scalar("n")
	fmt.Println("counted to", n.Int())
	// Output: counted to 5
}

func TestLoadBuiltinUnknown(t *testing.T) {
	_, err := golisa.LoadBuiltin("nosuch")
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("unknown builtin: %v", err)
	}
}

func TestLoadMachineReportsParseErrors(t *testing.T) {
	_, err := golisa.LoadMachine("bad", "OPERATION { }")
	if err == nil || !strings.Contains(err.Error(), "parse") {
		t.Errorf("parse error not surfaced: %v", err)
	}
	_, err = golisa.LoadMachine("bad2", "OPERATION x { CODING { nosuch } }")
	if err == nil || !strings.Contains(err.Error(), "analyze") {
		t.Errorf("sema error not surfaced: %v", err)
	}
}

func TestAllBuiltinsProvideFullToolchain(t *testing.T) {
	for _, name := range []string{"simple16", "c62x", "simd16"} {
		t.Run(name, func(t *testing.T) {
			m, err := golisa.LoadBuiltin(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.NewAssembler(); err != nil {
				t.Errorf("assembler: %v", err)
			}
			if _, err := m.NewDisassembler(); err != nil {
				t.Errorf("disassembler: %v", err)
			}
			for _, mode := range []golisa.Mode{golisa.Interpretive, golisa.Compiled} {
				if _, err := m.NewSimulator(mode); err != nil {
					t.Errorf("simulator %v: %v", mode, err)
				}
			}
			if pm, err := m.ProgramMemory(); err != nil || pm != "prog_mem" {
				t.Errorf("program memory: %q, %v", pm, err)
			}
			st := m.Stats()
			if st.Instructions == 0 || st.SourceLines == 0 {
				t.Errorf("stats incomplete: %+v", st)
			}
		})
	}
}

func TestProgramImageRoundTripsThroughDisassembler(t *testing.T) {
	m, err := golisa.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m.NewAssembler()
	d, _ := m.NewDisassembler()
	prog, err := a.Assemble(dotKernel)
	if err != nil {
		t.Fatal(err)
	}
	// Disassemble the whole image and reassemble: identical words.
	var sb strings.Builder
	for _, w := range prog.Words {
		text, err := d.Disassemble(w)
		if err != nil {
			t.Fatalf("disassemble %#x: %v", w, err)
		}
		sb.WriteString(text + "\n")
	}
	prog2, err := a.Assemble(sb.String())
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, sb.String())
	}
	if len(prog2.Words) != len(prog.Words) {
		t.Fatalf("word count %d != %d", len(prog2.Words), len(prog.Words))
	}
	for i := range prog.Words {
		if prog.Words[i] != prog2.Words[i] {
			t.Errorf("word %d: %#x != %#x", i, prog2.Words[i], prog.Words[i])
		}
	}
}
