package gosim

import (
	"fmt"

	"golisa/internal/behavior"
	"golisa/internal/bitvec/kernel"
	"golisa/internal/model"
)

// The in-process backend runs the Program's IR as the threaded code of
// internal/behavior — the very closures sim's compiled mode executes —
// on a model.State, under a static schedule: the main behavior, the
// activation items, and a ring of pre-decoded handlers. It is the
// fallback engine when the Go toolchain is unavailable (or the program
// too short to amortize a build), and the reference the emitted runner
// is cross-checked against in tests.

type handlerFn func(*behavior.Exec) error

// runtimeProg is a Program's compiled threaded code, built once and
// shared by every Machine (closures only touch state through the Exec
// they run on).
type runtimeProg struct {
	resetFn handlerFn
	mainFn  handlerFn
	items   []rtItem
	disp    map[uint64][]rtTarget
	dispErr map[uint64]string
}

type rtItem struct {
	cond  func(*behavior.Exec) uint64
	stage int
	fn    handlerFn
}

type rtTarget struct {
	stage int
	fn    handlerFn
}

func (p *Program) runtime() *runtimeProg {
	p.rtOnce.Do(func() {
		rt := &runtimeProg{disp: map[uint64][]rtTarget{}, dispErr: map[uint64]string{}}
		rt.resetFn = behavior.CompileStmts(p.resetB)
		rt.mainFn = behavior.CompileStmts(p.mainB)
		for _, it := range p.items {
			var cf func(*behavior.Exec) uint64
			if it.cond != nil {
				cf = behavior.CompileExpr(it.cond)
			}
			rt.items = append(rt.items, rtItem{cond: cf, stage: it.stage, fn: behavior.CompileStmts(it.body)})
		}
		for w, h := range p.handlers {
			if h.errMsg != "" {
				rt.dispErr[w] = h.errMsg
				continue
			}
			ts := make([]rtTarget, 0, len(h.targets))
			for _, t := range h.targets {
				ts = append(ts, rtTarget{stage: t.stage, fn: behavior.CompileStmts(t.body)})
			}
			rt.disp[w] = ts
		}
		p.rt = rt
	})
	return p.rt
}

// Machine is one in-process execution of a Program: a model.State, the
// behavior engine context the compiled handlers run on (locals, prints,
// dispatch), and the activation ring. Machines are single-goroutine;
// any number may run concurrently over one shared Program.
type Machine struct {
	p     *Program
	s     *model.State
	x     *behavior.Exec
	now   []handlerFn
	ring  [][]ringEnt
	cycle uint64
	err   error

	// OnPrint receives each print() line; nil discards.
	OnPrint func(string)
	// OnCycle runs after every completed cycle (lockstep hook).
	OnCycle func(*Machine)
}

// NewMachine allocates a reset Machine with the program image loaded.
func (p *Program) NewMachine() *Machine {
	p.runtime()
	m := &Machine{p: p, s: model.NewState(p.Model)}
	m.x = &behavior.Exec{M: p.Model, S: m.s, Ctx: (*machineCtx)(m)}
	m.x.ReserveLocals(p.nLoc)
	m.ring = make([][]ringEnt, p.depth)
	m.Reset()
	return m
}

// Reset zeroes all state, runs the model's reset behavior (latch writes
// take effect immediately, as in the simulator), and loads the program
// image into program memory.
func (m *Machine) Reset() {
	p := m.p
	m.s.Reset()
	m.now = m.now[:0]
	for i := range m.ring {
		m.ring[i] = m.ring[i][:0]
	}
	m.cycle = 0
	m.err = nil
	m.run(p.rt.resetFn)
	m.s.Commit()
	if p.progMem != nil {
		arr := m.s.Arrays[p.progMem.Slot]
		base, size := p.progMem.Base, p.progMem.Size
		mk := kernel.Mask(p.progMem.Width)
		for i, w := range p.Words {
			a := p.Origin + uint64(i)
			if a >= base && a-base < size {
				arr[a-base] = w & mk
			}
		}
	}
}

// run executes one compiled handler, keeping the first error.
func (m *Machine) run(fn handlerFn) {
	if fn == nil {
		return
	}
	if err := fn(m.x); err != nil && m.err == nil {
		m.err = err
	}
}

// Halted reports whether the model's halt resource is nonzero.
func (m *Machine) Halted() bool {
	return m.p.halt != nil && m.s.Scalars[m.p.halt.Slot] != 0
}

// Cycles returns the number of completed control steps.
func (m *Machine) Cycles() uint64 { return m.cycle }

// Err returns the sticky runtime error, if any.
func (m *Machine) Err() error { return m.err }

// Run executes control steps until halt, an error, or max steps.
func (m *Machine) Run(max uint64) (uint64, error) {
	var n uint64
	for n < max {
		if m.Halted() {
			return n, nil
		}
		m.Step()
		if m.err != nil {
			return n, m.err
		}
		n++
	}
	return n, nil
}

// ringEnt is one staged activation waiting on the ring: the pipeline
// stage it executes in plus its compiled handler. Entries sharing a ring
// slot but inserted on different cycles necessarily carry different
// stages, so the stage orders the slot completely.
type ringEnt struct {
	stage int
	fn    handlerFn
}

// Step runs one control step: the main behavior, the activation items
// (conditions first, then the this-cycle queue in activation order), the
// ring slot of pipeline work that matured this cycle (stage-ascending,
// insertion order within a stage — the packet's entry order), and
// finally the latch commit.
func (m *Machine) Step() {
	rt := m.p.rt
	m.run(rt.mainFn)
	for i := range rt.items {
		it := &rt.items[i]
		if it.cond != nil && it.cond(m.x) == 0 {
			continue
		}
		m.schedule(it.stage, it.fn)
	}
	// Handlers may append (a dispatch scheduling an unassigned or stage-0
	// instruction), so index rather than range.
	for i := 0; i < len(m.now); i++ {
		m.run(m.now[i])
	}
	m.now = m.now[:0]
	cur := m.cycle % uint64(m.p.depth)
	slot := m.ring[cur]
	for st := 1; st < m.p.depth; st++ {
		for _, en := range slot {
			if en.stage == st {
				m.run(en.fn)
			}
		}
	}
	m.ring[cur] = slot[:0]
	m.s.Commit()
	m.cycle++
	if m.OnCycle != nil {
		m.OnCycle(m)
	}
}

func (m *Machine) schedule(stage int, fn handlerFn) {
	if fn == nil {
		return
	}
	if stage <= 0 {
		m.now = append(m.now, fn)
		return
	}
	s := (m.cycle + uint64(stage)) % uint64(m.p.depth)
	m.ring[s] = append(m.ring[s], ringEnt{stage: stage, fn: fn})
}

// dispatch schedules the handlers of the word in the dispatch register.
// A word that does not decode stops the run at the end of the cycle, as
// the emitted runner's fail does.
func (m *Machine) dispatch() {
	p := m.p
	key := m.s.Scalars[p.rootRes.Slot] & kernel.Mask(p.dispW)
	if msg, bad := p.rt.dispErr[key]; bad {
		m.fail(fmt.Errorf("cycle %d: %s", m.cycle, msg))
		return
	}
	ts, ok := p.rt.disp[key]
	if !ok {
		m.fail(fmt.Errorf("cycle %d: dispatch of unknown word %#x", m.cycle, key))
		return
	}
	for _, t := range ts {
		m.schedule(t.stage, t.fn)
	}
}

func (m *Machine) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// machineCtx adapts Machine to behavior.Context: the only context calls
// an admitted Program makes are prints and coding-root dispatches.
type machineCtx Machine

func (c *machineCtx) PipeOp(p *model.Pipeline, _ int, op string) error {
	return fmt.Errorf("pipeline operation %s.%s in a static schedule", p.Name, op)
}

func (c *machineCtx) Print(s string) {
	if c.OnPrint != nil {
		c.OnPrint(s)
	}
}

func (c *machineCtx) CallOp(*model.Operation) error {
	(*Machine)(c).dispatch()
	return nil
}

func (c *machineCtx) CallInstance(in *model.Instance) error {
	return fmt.Errorf("call of %s in a static schedule", in.Op.Name)
}

// State returns a copy of the machine's current architectural state.
func (m *Machine) State() *model.State { return m.s.Clone() }

// StateFrom renders a protocol state snapshot (slot-indexed scalars and
// memories, as the native runner's trace lines carry them) into a fresh
// model.State — the bridge between a generated run and cosim.Lockstep.
func (p *Program) StateFrom(sc []uint64, arr [][]uint64) *model.State {
	st := model.NewState(p.Model)
	for i := range st.Scalars {
		if i < len(sc) {
			st.Scalars[i] = sc[i] & kernel.Mask(p.scalars[i].Width)
		}
	}
	for i, dst := range st.Arrays {
		if i < len(arr) {
			mk := kernel.Mask(p.arrays[i].Width)
			for j, v := range arr[i] {
				if j < len(dst) {
					dst[j] = v & mk
				}
			}
		}
	}
	return st
}

// Scalars returns a copy of the scalar file (slot-indexed).
func (m *Machine) Scalars() []uint64 { return append([]uint64(nil), m.s.Scalars...) }

// Arrays returns a copy of the memories (slot-indexed).
func (m *Machine) Arrays() [][]uint64 { return m.s.Clone().Arrays }
