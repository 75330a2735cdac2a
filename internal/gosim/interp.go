package gosim

import (
	"fmt"
	"strconv"
	"strings"

	"golisa/internal/bitvec"
	"golisa/internal/bitvec/kernel"
	"golisa/internal/model"
)

// The in-process backend compiles the IR into threaded code: one Go
// closure per expression node and statement, specialized at compile time
// on operator, width and signedness, so the per-cycle loop runs with no
// AST walking, no map lookups and no bitvec boxing. Every operator whose
// result depends on more than a mask calls the shared semantic kernel
// (internal/bitvec/kernel), the same functions bitvec.Value and the
// emitted runner execute. It is the fallback engine when the Go
// toolchain is unavailable (or the program too short to amortize a
// build), and the reference the emitted runner is cross-checked against
// in tests.

type efn func(*Machine) uint64
type sfn func(*Machine)

// runtimeProg is a Program's compiled closure backend, built once and
// shared by every Machine (closures only touch state through the *Machine
// argument).
type runtimeProg struct {
	resetFn sfn
	mainFn  sfn
	items   []rtItem
	disp    map[uint64][]rtTarget
	dispErr map[uint64]string
}

type rtItem struct {
	cond  efn
	stage int
	fn    sfn
}

type rtTarget struct {
	stage int
	fn    sfn
}

func (p *Program) runtime() *runtimeProg {
	p.rtOnce.Do(func() {
		rt := &runtimeProg{disp: map[uint64][]rtTarget{}, dispErr: map[uint64]string{}}
		rt.resetFn = compileStmtsFn(p, p.resetB)
		rt.mainFn = compileStmtsFn(p, p.mainB)
		for _, it := range p.items {
			var cf efn
			if it.cond != nil {
				cf = compileExprFn(it.cond)
			}
			rt.items = append(rt.items, rtItem{cond: cf, stage: it.stage, fn: compileStmtsFn(p, it.body)})
		}
		for w, h := range p.handlers {
			if h.errMsg != "" {
				rt.dispErr[w] = h.errMsg
				continue
			}
			ts := make([]rtTarget, 0, len(h.targets))
			for _, t := range h.targets {
				ts = append(ts, rtTarget{stage: t.stage, fn: compileStmtsFn(p, t.body)})
			}
			rt.disp[w] = ts
		}
		p.rt = rt
	})
	return p.rt
}

// Machine is one in-process execution of a Program: flat uint64 state
// indexed by the model's resource slots, a latch pending set, the shared
// local pool, and the activation ring. Machines are single-goroutine;
// any number may run concurrently over one shared Program.
type Machine struct {
	p     *Program
	sc    []uint64
	arr   [][]uint64
	pendV []uint64
	pendS []bool
	loc   []uint64
	now   []sfn
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
	m := &Machine{p: p}
	m.sc = make([]uint64, len(p.scalars))
	m.arr = make([][]uint64, len(p.arrays))
	for i, r := range p.arrays {
		if r != nil {
			m.arr[i] = make([]uint64, r.Total())
		}
	}
	m.pendV = make([]uint64, len(p.latches))
	m.pendS = make([]bool, len(p.latches))
	m.loc = make([]uint64, p.nLoc)
	m.ring = make([][]ringEnt, p.depth)
	m.Reset()
	return m
}

// Reset zeroes all state, runs the model's reset behavior (latch writes
// take effect immediately, as in the simulator), and loads the program
// image into program memory.
func (m *Machine) Reset() {
	p := m.p
	for i := range m.sc {
		m.sc[i] = 0
	}
	for _, a := range m.arr {
		for i := range a {
			a[i] = 0
		}
	}
	for i := range m.pendS {
		m.pendS[i] = false
	}
	m.now = m.now[:0]
	for i := range m.ring {
		m.ring[i] = m.ring[i][:0]
	}
	m.cycle = 0
	m.err = nil
	if p.rt.resetFn != nil {
		p.rt.resetFn(m)
	}
	m.commit()
	if p.progMem != nil {
		arr := m.arr[p.progMem.Slot]
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

// Halted reports whether the model's halt resource is nonzero.
func (m *Machine) Halted() bool {
	return m.p.halt != nil && m.sc[m.p.halt.Slot] != 0
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
	fn    sfn
}

// Step runs one control step: the main behavior, the activation items
// (conditions first, then the this-cycle queue in activation order), the
// ring slot of pipeline work that matured this cycle (stage-ascending,
// insertion order within a stage — the packet's entry order), and
// finally the latch commit.
func (m *Machine) Step() {
	rt := m.p.rt
	if rt.mainFn != nil {
		rt.mainFn(m)
	}
	for i := range rt.items {
		it := &rt.items[i]
		if it.cond != nil && it.cond(m) == 0 {
			continue
		}
		m.schedule(it.stage, it.fn)
	}
	// Handlers may append (a dispatch scheduling an unassigned or stage-0
	// instruction), so index rather than range.
	for i := 0; i < len(m.now); i++ {
		m.now[i](m)
	}
	m.now = m.now[:0]
	cur := m.cycle % uint64(m.p.depth)
	slot := m.ring[cur]
	for st := 1; st < m.p.depth; st++ {
		for _, en := range slot {
			if en.stage == st {
				en.fn(m)
			}
		}
	}
	m.ring[cur] = slot[:0]
	m.commit()
	m.cycle++
	if m.OnCycle != nil {
		m.OnCycle(m)
	}
}

func (m *Machine) commit() {
	for i, set := range m.pendS {
		if set {
			m.sc[m.p.latches[i].Slot] = m.pendV[i]
			m.pendS[i] = false
		}
	}
}

func (m *Machine) schedule(stage int, fn sfn) {
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

// SyncInto copies the machine's architectural state into a model.State
// (the lockstep comparison path).
func (m *Machine) SyncInto(st *model.State) {
	for _, r := range m.p.scalars {
		if r != nil {
			st.Scalars[r.Slot] = bitvec.New(m.sc[r.Slot], r.Width)
		}
	}
	for _, r := range m.p.arrays {
		if r != nil {
			dst, src := st.Arrays[r.Slot], m.arr[r.Slot]
			for i := range src {
				dst[i] = bitvec.New(src[i], r.Width)
			}
		}
	}
}

// State returns a fresh model.State holding the machine's current
// architectural state.
func (m *Machine) State() *model.State {
	st := model.NewState(m.p.Model)
	m.SyncInto(st)
	return st
}

// StateFrom renders a protocol state snapshot (slot-indexed scalars and
// memories, as the native runner's trace lines carry them) into a fresh
// model.State — the bridge between a generated run and cosim.Lockstep.
func (p *Program) StateFrom(sc []uint64, arr [][]uint64) *model.State {
	st := model.NewState(p.Model)
	for _, r := range p.scalars {
		if r != nil && r.Slot < len(sc) {
			st.Scalars[r.Slot] = bitvec.New(sc[r.Slot], r.Width)
		}
	}
	for _, r := range p.arrays {
		if r == nil || r.Slot >= len(arr) {
			continue
		}
		dst := st.Arrays[r.Slot]
		for i, v := range arr[r.Slot] {
			if i < len(dst) {
				dst[i] = bitvec.New(v, r.Width)
			}
		}
	}
	return st
}

// Scalars returns a copy of the scalar file (slot-indexed).
func (m *Machine) Scalars() []uint64 { return append([]uint64(nil), m.sc...) }

// Arrays returns a copy of the memories (slot-indexed).
func (m *Machine) Arrays() [][]uint64 {
	out := make([][]uint64, len(m.arr))
	for i, a := range m.arr {
		if a != nil {
			out[i] = append([]uint64(nil), a...)
		}
	}
	return out
}

// ---- statement compilation ----------------------------------------------

func compileStmtsFn(p *Program, list []*stmt) sfn {
	if len(list) == 0 {
		return nil
	}
	fns := make([]sfn, len(list))
	for i, s := range list {
		fns[i] = compileStmtFn(p, s)
	}
	if len(fns) == 1 {
		return fns[0]
	}
	return func(m *Machine) {
		for _, f := range fns {
			f(m)
		}
	}
}

func compileStmtFn(p *Program, s *stmt) sfn {
	switch s.kind {
	case sAssign:
		return compileAssignFn(p, s.lhs, s.rhs)
	case sIf:
		cf := compileExprFn(s.cond)
		tf := compileStmtsFn(p, s.then)
		ef := compileStmtsFn(p, s.els)
		return func(m *Machine) {
			if cf(m) != 0 {
				if tf != nil {
					tf(m)
				}
			} else if ef != nil {
				ef(m)
			}
		}
	case sPrint:
		type part struct {
			str    string
			fn     efn
			w      int
			signed bool
		}
		parts := make([]part, len(s.parts))
		for i, pp := range s.parts {
			if pp.isStr {
				parts[i] = part{str: pp.str}
			} else {
				parts[i] = part{fn: compileExprFn(pp.x), w: pp.x.w, signed: pp.signed}
			}
		}
		return func(m *Machine) {
			segs := make([]string, len(parts))
			for i, pp := range parts {
				switch {
				case pp.fn == nil:
					segs[i] = pp.str
				case pp.signed:
					segs[i] = strconv.FormatInt(int64(kernel.SignExt(pp.fn(m), pp.w)), 10)
				default:
					segs[i] = strconv.FormatUint(pp.fn(m), 10)
				}
			}
			if m.OnPrint != nil {
				m.OnPrint(strings.Join(segs, " "))
			}
		}
	case sDispatch:
		rrSlot := p.rootRes.Slot
		dmask := kernel.Mask(p.dispW)
		return func(m *Machine) {
			key := m.sc[rrSlot] & dmask
			if msg, bad := p.rt.dispErr[key]; bad {
				m.err = fmt.Errorf("cycle %d: %s", m.cycle, msg)
				return
			}
			ts, ok := p.rt.disp[key]
			if !ok {
				m.err = fmt.Errorf("cycle %d: dispatch of unknown word %#x", m.cycle, key)
				return
			}
			for _, t := range ts {
				m.schedule(t.stage, t.fn)
			}
		}
	}
	panic("gosim: unknown statement kind")
}

func compileAssignFn(p *Program, lhs *lval, rhs *expr) sfn {
	rf := compileExprFn(rhs)
	switch lhs.kind {
	case lLocal:
		idx, lw := lhs.local.idx, lhs.local.w
		mk := kernel.Mask(lw)
		if lhs.local.signed {
			rw := lhs.rhsW
			return func(m *Machine) { m.loc[idx] = kernel.SignExt(rf(m), rw) & mk }
		}
		return func(m *Machine) { m.loc[idx] = rf(m) & mk }
	case lScalar:
		r := lhs.res
		mk := kernel.Mask(r.Width)
		if r.Latch {
			pi := p.latchIdx[r]
			return func(m *Machine) {
				m.pendV[pi] = rf(m) & mk
				m.pendS[pi] = true
			}
		}
		slot := r.Slot
		return func(m *Machine) { m.sc[slot] = rf(m) & mk }
	case lSlice:
		r := lhs.res
		slot := r.Slot
		bmk := kernel.Mask(r.Width)
		lo := uint(lhs.lo)
		mm := kernel.Mask(lhs.hi-lhs.lo+1) << lo
		if r.Latch {
			pi := p.latchIdx[r]
			return func(m *Machine) {
				cur := m.sc[slot] // committed base, as model.State.Write does
				m.pendV[pi] = ((cur &^ mm) | ((rf(m) << lo) & mm)) & bmk
				m.pendS[pi] = true
			}
		}
		return func(m *Machine) {
			cur := m.sc[slot]
			m.sc[slot] = ((cur &^ mm) | ((rf(m) << lo) & mm)) & bmk
		}
	case lElem:
		r := lhs.res
		slot := r.Slot
		base, size := r.Base, r.Size
		mk := kernel.Mask(r.Width)
		af := compileExprFn(lhs.idx)
		return func(m *Machine) {
			a := af(m)
			if a >= base && a-base < size {
				m.arr[slot][a-base] = rf(m) & mk
			}
		}
	}
	panic("gosim: unknown lvalue kind")
}

// ---- expression compilation ----------------------------------------------

// widenFn wraps a child closure with the arithmetic-widening conversion
// to the common width: sign-extension for signed operands, the identity
// for unsigned ones (payloads are already zero-extended).
func widenFn(c *expr, cf efn, to int) efn {
	if c.signed && c.w < to {
		w := c.w
		mk := kernel.Mask(to)
		return func(m *Machine) uint64 { return kernel.SignExt(cf(m), w) & mk }
	}
	return cf
}

// cmpIntFn yields the operand as the int64 the interpreter's signed
// compare sees: signed operands sign-extend from their own width,
// unsigned operands from the common width (so an unsigned value with the
// top bit of the common width set compares negative, exactly like
// Resize(w) followed by CmpS).
func cmpIntFn(c *expr, cf efn, w int) func(*Machine) int64 {
	if c.signed {
		w = c.w
	}
	return func(m *Machine) int64 { return int64(kernel.SignExt(cf(m), w)) }
}

func compileExprFn(e *expr) efn {
	switch e.kind {
	case eConst:
		k := e.k
		return func(*Machine) uint64 { return k }
	case eLocal:
		idx := e.local.idx
		return func(m *Machine) uint64 { return m.loc[idx] }
	case eScalar:
		slot := e.res.Slot
		return func(m *Machine) uint64 { return m.sc[slot] }
	case eElem:
		slot := e.res.Slot
		base, size := e.res.Base, e.res.Size
		af := compileExprFn(e.idx)
		return func(m *Machine) uint64 {
			a := af(m)
			if a >= base && a-base < size {
				return m.arr[slot][a-base]
			}
			return 0
		}
	case eSlice:
		af := compileExprFn(e.a)
		lo := uint(e.n)
		mk := kernel.Mask(e.w)
		return func(m *Machine) uint64 { return (af(m) >> lo) & mk }
	case eUn:
		af := compileExprFn(e.a)
		mk := kernel.Mask(e.w)
		switch e.op {
		case "-":
			return func(m *Machine) uint64 { return (-af(m)) & mk }
		case "!":
			return func(m *Machine) uint64 { return kernel.Bool(af(m) == 0) }
		case "~":
			return func(m *Machine) uint64 { return (^af(m)) & mk }
		}
	case eBin:
		return compileBinFn(e)
	case eCond:
		cf := compileExprFn(e.a)
		tf := compileExprFn(e.b)
		ff := compileExprFn(e.c)
		return func(m *Machine) uint64 {
			if cf(m) != 0 {
				return tf(m)
			}
			return ff(m)
		}
	case eAbs:
		af := compileExprFn(e.a)
		w := e.a.w
		return func(m *Machine) uint64 { return kernel.Abs(af(m), w) }
	case eMinMax:
		af := compileExprFn(e.a)
		bf := compileExprFn(e.b)
		w := e.a.w
		switch {
		case e.a.signed && e.op == "min":
			return func(m *Machine) uint64 { return kernel.MinS(af(m), bf(m), w) }
		case e.a.signed:
			return func(m *Machine) uint64 { return kernel.MaxS(af(m), bf(m), w) }
		case e.op == "min":
			return func(m *Machine) uint64 { return kernel.MinU(af(m), bf(m)) }
		default:
			return func(m *Machine) uint64 { return kernel.MaxU(af(m), bf(m)) }
		}
	case eSat:
		af := compileExprFn(e.a)
		w, to := e.a.w, e.n
		return func(m *Machine) uint64 { return kernel.SatS(af(m), w, to) }
	case eSext:
		af := compileExprFn(e.a)
		n := e.n
		return func(m *Machine) uint64 { return kernel.SignExt(af(m), n) }
	case eZext:
		af := compileExprFn(e.a)
		mk := kernel.Mask(e.n)
		return func(m *Machine) uint64 { return af(m) & mk }
	case eAddSat:
		af := compileExprFn(e.a)
		bf := compileExprFn(e.b)
		aw, bw := e.a.w, e.b.w
		sub := e.op == "-"
		return func(m *Machine) uint64 { return kernel.AddSat(af(m), aw, bf(m), bw, sub) }
	}
	panic("gosim: unknown expression kind")
}

func compileBinFn(e *expr) efn {
	l, r := e.a, e.b
	w := l.w
	if r.w > w {
		w = r.w
	}
	lf := compileExprFn(l)
	rf := compileExprFn(r)
	switch e.op {
	case "+", "-", "*", "&", "|", "^", "==", "!=", "/", "%":
		af := widenFn(l, lf, w)
		bf := widenFn(r, rf, w)
		mk := kernel.Mask(w)
		signed := l.signed || r.signed
		switch e.op {
		case "+":
			return func(m *Machine) uint64 { return (af(m) + bf(m)) & mk }
		case "-":
			return func(m *Machine) uint64 { return (af(m) - bf(m)) & mk }
		case "*":
			return func(m *Machine) uint64 { return (af(m) * bf(m)) & mk }
		case "&":
			return func(m *Machine) uint64 { return af(m) & bf(m) }
		case "|":
			return func(m *Machine) uint64 { return af(m) | bf(m) }
		case "^":
			return func(m *Machine) uint64 { return af(m) ^ bf(m) }
		case "==":
			return func(m *Machine) uint64 { return kernel.Bool(af(m) == bf(m)) }
		case "!=":
			return func(m *Machine) uint64 { return kernel.Bool(af(m) != bf(m)) }
		case "/":
			if signed {
				return func(m *Machine) uint64 { return kernel.DivS(af(m), bf(m), w) }
			}
			return func(m *Machine) uint64 { return kernel.DivU(af(m), bf(m), w) }
		default: // "%"
			if signed {
				return func(m *Machine) uint64 { return kernel.RemS(af(m), bf(m), w) }
			}
			return func(m *Machine) uint64 { return kernel.RemU(af(m), bf(m), w) }
		}
	case "<", "<=", ">", ">=":
		if l.signed || r.signed {
			ai := cmpIntFn(l, lf, w)
			bi := cmpIntFn(r, rf, w)
			switch e.op {
			case "<":
				return func(m *Machine) uint64 { return kernel.Bool(ai(m) < bi(m)) }
			case "<=":
				return func(m *Machine) uint64 { return kernel.Bool(ai(m) <= bi(m)) }
			case ">":
				return func(m *Machine) uint64 { return kernel.Bool(ai(m) > bi(m)) }
			default:
				return func(m *Machine) uint64 { return kernel.Bool(ai(m) >= bi(m)) }
			}
		}
		// Unsigned compares are payload compares at the operands' own
		// widths (CmpU does not widen).
		switch e.op {
		case "<":
			return func(m *Machine) uint64 { return kernel.Bool(lf(m) < rf(m)) }
		case "<=":
			return func(m *Machine) uint64 { return kernel.Bool(lf(m) <= rf(m)) }
		case ">":
			return func(m *Machine) uint64 { return kernel.Bool(lf(m) > rf(m)) }
		default:
			return func(m *Machine) uint64 { return kernel.Bool(lf(m) >= rf(m)) }
		}
	case "<<":
		lw := l.w
		return func(m *Machine) uint64 { return kernel.Shl(lf(m), rf(m)&63, lw) }
	case ">>":
		lw := l.w
		if l.signed {
			return func(m *Machine) uint64 { return kernel.ShrS(lf(m), rf(m)&63, lw) }
		}
		return func(m *Machine) uint64 { return kernel.ShrU(lf(m), rf(m)&63, lw) }
	case "&&":
		return func(m *Machine) uint64 { return kernel.Bool(lf(m) != 0 && rf(m) != 0) }
	case "||":
		return func(m *Machine) uint64 { return kernel.Bool(lf(m) != 0 || rf(m) != 0) }
	}
	panic("gosim: unknown binary operator " + e.op)
}
