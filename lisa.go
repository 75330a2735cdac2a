// Package golisa is a Go reproduction of the LISA machine description
// language and its retargetable tool generation (Pees, Hoffmann,
// Zivojnovic, Meyr: "LISA — Machine Description Language for Cycle-Accurate
// Models of Programmable DSP Architectures", DAC 1999).
//
// A LISA description declares the machine's resources (registers, memories,
// pipelines) and its operations (coding, syntax, behavior, activation
// timing). From one description golisa generates:
//
//   - a two-pass assembler and a disassembler,
//   - a bit- and cycle-accurate interpretive simulator,
//   - a compiled simulator (decode-once, pre-bound closures),
//   - model statistics and textbook documentation.
//
// Quick start:
//
//	m, err := golisa.LoadBuiltin("simple16")
//	sim, prog, err := m.AssembleAndLoad(src, golisa.Compiled)
//	sim.Run(100000)
//
// Two complete machine models ship embedded: "simple16", a small DSP used
// by the documentation examples, and "c62x", a TMS320C6201-subset VLIW
// model reproducing the paper's case study.
package golisa

import (
	"golisa/internal/asm"
	"golisa/internal/core"
	"golisa/internal/model"
	"golisa/internal/sim"
)

// Machine is a loaded LISA model; see core.Machine.
type Machine = core.Machine

// Program is an assembled binary image.
type Program = asm.Program

// Simulator executes a model cycle by cycle.
type Simulator = sim.Simulator

// Stats summarizes model complexity (paper §4).
type Stats = model.Stats

// Mode selects the simulation technique.
type Mode = sim.Mode

// Simulation modes.
const (
	// Interpretive re-decodes the instruction word and walks the behavior
	// AST on every execution.
	Interpretive = sim.Interpretive
	// Compiled decodes each distinct instruction word once and runs the
	// bound instance's behavior as pre-compiled closures with operands and
	// fields resolved (the paper's compiled-simulation principle).
	Compiled = sim.Compiled
	// Deprecated: CompiledPrebound is the former name of Compiled.
	CompiledPrebound = sim.Compiled
)

// LoadMachine parses and analyzes LISA source text.
func LoadMachine(name, src string) (*Machine, error) { return core.LoadMachine(name, src) }

// LoadBuiltin loads an embedded model: "simple16" or "c62x".
func LoadBuiltin(name string) (*Machine, error) { return core.LoadBuiltin(name) }
