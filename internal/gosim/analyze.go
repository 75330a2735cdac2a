package gosim

import (
	"fmt"

	"golisa/internal/asm"
	"golisa/internal/ast"
	"golisa/internal/behavior"
	"golisa/internal/bitvec"
	"golisa/internal/bitvec/kernel"
	"golisa/internal/coding"
	"golisa/internal/core"
	"golisa/internal/model"
	"golisa/internal/perf"
)

// Program is one (model, program) pair translated into the gosim IR: the
// reset and main behaviors, the per-cycle activation schedule, and one
// pre-decoded handler per distinct instruction word. It is immutable
// after Compile and shared freely across workers and the source
// emitter.
type Program struct {
	Model     *model.Model
	ModelHash string // perf.HashString over the LISA source
	ProgHash  string // perf.HashProgram over (origin, words)

	Origin uint64
	Words  []uint64 // program image, masked to the word width

	depth   int // pipeline depth; 1 for unpipelined models
	pipe    *model.Pipeline
	progMem *model.Resource
	halt    *model.Resource // nil: never halts
	rootRes *model.Resource
	dispW   int // dispatch key width: min(root resource width, word width)

	resetB []*behavior.Stmt
	mainB  []*behavior.Stmt
	items  []mainItem
	shift  bool // main activation carries the pipeline shift

	handlers map[uint64]*wordHandler

	nLoc int // shared local pool size (max over all handlers)

	// Slot-indexed resource tables mirroring model.State's layout.
	scalars []*model.Resource
	arrays  []*model.Resource

	latches []*model.Resource
}

// mainItem is one ActRef of the main operation's ACTIVATION: an optional
// guard condition plus the target's behavior, scheduled either this cycle
// (stage <= 0) or `stage` cycles ahead on the ring.
type mainItem struct {
	cond   *behavior.Expr
	stage  int
	body   []*behavior.Stmt
	opName string
}

// wordHandler is the pre-resolved dispatch for one distinct instruction
// word: the decoded instruction's behaviors, each with its pipeline
// stage. Words that do not decode keep the decode error and raise it only
// if the program ever dispatches them (data words are harmless).
type wordHandler struct {
	word    uint64
	name    string
	errMsg  string // non-empty: dispatching this word is a runtime error
	targets []target
	addrs   []uint64
}

type target struct {
	stage  int // <= 0 runs this cycle; > 0 runs `stage` cycles ahead
	body   []*behavior.Stmt
	opName string
}

// Compile translates a decoded program against its model into a gosim
// Program. Models outside the statically schedulable class (multiple
// pipelines, data-dependent activation delays, stalls/flushes, behavior
// constructs the IR cannot express) return an error wrapping
// ErrUnsupported; callers fall back to the interpretive simulator.
func Compile(mc *core.Machine, prog *asm.Program) (*Program, error) {
	m := mc.Model
	p := &Program{
		Model:     m,
		ModelHash: perf.HashString(mc.Source),
		ProgHash:  perf.HashProgram(prog.Origin, prog.Words),
		Origin:    prog.Origin,
		handlers:  map[uint64]*wordHandler{},
	}

	if len(m.Pipelines) > 1 {
		return nil, unsup("model has %d pipelines", len(m.Pipelines))
	}
	p.depth = 1
	if len(m.Pipelines) == 1 {
		p.pipe = m.Pipelines[0]
		p.depth = len(p.pipe.Stages)
		if p.depth < 1 {
			p.depth = 1
		}
	}

	pmName, err := mc.ProgramMemory()
	if err != nil {
		return nil, unsup("%v", err)
	}
	p.progMem = m.Resource(pmName)

	if h := m.Resource("halt"); h != nil {
		if h.IsAlias || h.IsMemory() {
			return nil, unsup("halt resource is not a plain scalar")
		}
		p.halt = h
	}

	// Mirror model.State's slot layout.
	for _, r := range m.Resources {
		if r.IsAlias {
			continue
		}
		if r.IsMemory() {
			for len(p.arrays) <= r.Slot {
				p.arrays = append(p.arrays, nil)
			}
			p.arrays[r.Slot] = r
			continue
		}
		for len(p.scalars) <= r.Slot {
			p.scalars = append(p.scalars, nil)
		}
		p.scalars[r.Slot] = r
		if r.Latch {
			p.latches = append(p.latches, r)
		}
	}

	// Mask the image to the word width once; handler keys mask further to
	// the dispatch register's width, exactly like coding.DecodeRoot.
	wordW := min(max(prog.Width, 1), 64)
	p.Words = make([]uint64, len(prog.Words))
	for i, w := range prog.Words {
		p.Words[i] = w & kernel.Mask(wordW)
	}

	b := &build{m: m, progMem: p.progMem, low: &behavior.Lowering{M: m, Inline: true}}

	if op, ok := m.Ops["reset"]; ok {
		in := model.NewInstance(op)
		if err := in.ResolveVariant(); err != nil {
			return nil, unsup("reset: %v", err)
		}
		if in.Variant.Activation != nil {
			return nil, unsup("reset has an ACTIVATION section")
		}
		if in.Variant.Behavior != nil {
			p.resetB, err = compileHandler(b, in, false)
			if err != nil {
				return nil, fmt.Errorf("reset: %w", err)
			}
		}
	}

	if op, ok := m.Ops["main"]; ok {
		if op.Pipe != nil {
			return nil, unsup("main is assigned to a pipeline stage")
		}
		in := model.NewInstance(op)
		if err := in.ResolveVariant(); err != nil {
			return nil, unsup("main: %v", err)
		}
		if in.Variant.Behavior != nil {
			p.mainB, err = compileHandler(b, in, false)
			if err != nil {
				return nil, fmt.Errorf("main: %w", err)
			}
		}
		if in.Variant.Activation != nil {
			if err := p.mainActivation(b, in, in.Variant.Activation.Items, nil); err != nil {
				return nil, err
			}
		}
	}

	// The dispatch root is discovered while compiling fetch-like handlers;
	// decode the program's distinct words (plus the all-zeros word the
	// registers reset to) through it.
	if b.root != nil {
		if err := p.buildHandlers(b, prog); err != nil {
			return nil, err
		}
	}

	// Schedulability: a target past stage 0 only ever executes because the
	// main activation shifts the pipeline every cycle.
	maxStage := 0
	for _, it := range p.items {
		if it.stage > maxStage {
			maxStage = it.stage
		}
	}
	for _, h := range p.handlers {
		for _, t := range h.targets {
			if t.stage > maxStage {
				maxStage = t.stage
			}
		}
	}
	if maxStage > 0 && !p.shift {
		return nil, unsup("staged activations without an unconditional pipeline shift")
	}

	if err := p.checkDispatchSafety(b); err != nil {
		return nil, err
	}

	p.nLoc = b.low.MaxLocals
	return p, nil
}

// compileHandler lowers one instance's behavior into IR statements and
// checks that the emitter can render them.
func compileHandler(b *build, in *model.Instance, canDispatch bool) ([]*behavior.Stmt, error) {
	out, _, err := b.low.Body(in)
	if err != nil {
		err = unsup("%v", err)
	} else {
		err = b.check(out, canDispatch)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.Op.Name, err)
	}
	return out, nil
}

// mainActivation walks the main operation's ACTIVATION items, compiling
// each ActRef target under the conjunction of the enclosing ActIf
// conditions, and recording the unconditional whole-pipeline shift.
func (p *Program) mainActivation(b *build, main *model.Instance, items []ast.ActItem, cond *behavior.Expr) error {
	for _, item := range items {
		switch it := item.(type) {
		case *ast.ActRef:
			if it.Delay != 0 {
				return unsup("main activation of %s with delay %d", it.Name, it.Delay)
			}
			op, ok := b.m.Ops[it.Name]
			if !ok {
				return unsup("main activates unknown operation %s", it.Name)
			}
			stage, err := p.targetStage(op)
			if err != nil {
				return err
			}
			if stage > 0 {
				// A staged main item inserts its own pipeline packet each
				// cycle; faithfully ordering those packets against dispatch
				// packets is what the single-packet ring cannot do.
				return unsup("main activates %s past stage 0", op.Name)
			}
			in := model.NewInstance(op)
			if err := in.ResolveVariant(); err != nil {
				return unsup("main target %s: %v", op.Name, err)
			}
			if in.Variant.Activation != nil {
				return unsup("main target %s has its own ACTIVATION", op.Name)
			}
			body, err := compileHandler(b, in, true)
			if err != nil {
				return err
			}
			p.items = append(p.items, mainItem{cond: cond, stage: stage, body: body, opName: op.Name})
		case *ast.ActPipeOp:
			if it.Op != "shift" || it.Stage != "" || it.Delay != 0 {
				return unsup("pipeline operation %s.%s %s", it.Pipe, it.Stage, it.Op)
			}
			if cond != nil {
				return unsup("conditional pipeline shift")
			}
			if p.shift {
				return unsup("multiple pipeline shifts per cycle")
			}
			p.shift = true
		case *ast.ActIf:
			c, err := p.compileActCond(b, main, it.Cond)
			if err != nil {
				return err
			}
			if err := p.mainActivation(b, main, it.Then, conj(cond, c)); err != nil {
				return err
			}
			if len(it.Else) > 0 {
				not := &behavior.Expr{Kind: behavior.EUn, Op: "!", A: c, W: 1}
				if err := p.mainActivation(b, main, it.Else, conj(cond, not)); err != nil {
					return err
				}
			}
		default:
			return unsup("main activation item %T", item)
		}
	}
	return nil
}

func conj(a, b *behavior.Expr) *behavior.Expr {
	if a == nil {
		return b
	}
	return &behavior.Expr{Kind: behavior.EBin, Op: "&&", A: a, B: b, W: 1}
}

// compileActCond compiles an ACTIVATION guard expression in the
// activating instance's context.
func (p *Program) compileActCond(b *build, in *model.Instance, e ast.Expr) (*behavior.Expr, error) {
	x, err := b.low.Expr(in, e)
	if err != nil {
		return nil, unsup("%v", err)
	}
	return x, checkExpr(x)
}

// targetStage maps an activation target onto the schedule: -1 for
// unassigned operations (they run in the activating cycle), otherwise the
// operation's stage in the model's single pipeline.
func (p *Program) targetStage(op *model.Operation) (int, error) {
	if op.Pipe == nil {
		return -1, nil
	}
	if op.Pipe != p.pipe {
		return 0, unsup("operation %s in unexpected pipeline %s", op.Name, op.Pipe.Name)
	}
	if op.StageIdx < 0 || op.StageIdx >= p.depth {
		return 0, unsup("operation %s stage %d out of range", op.Name, op.StageIdx)
	}
	return op.StageIdx, nil
}

// buildHandlers pre-decodes every distinct program word (plus zero, the
// reset value of the dispatch register) through the coding root and
// compiles each decoded instruction, resolving the coding tree entirely
// at generation time.
func (p *Program) buildHandlers(b *build, prog *asm.Program) error {
	root := b.root
	if root.RootResource == nil {
		return unsup("coding root %s has no compare-to resource", root.Name)
	}
	rr := root.RootResource
	if rr.IsAlias || rr.IsMemory() || rr.Width < 1 {
		return unsup("dispatch register %s is not a plain scalar", rr.Name)
	}
	p.rootRes = rr
	p.dispW = rr.Width
	if p.progMem != nil && p.progMem.Width < p.dispW {
		p.dispW = p.progMem.Width
	}

	dec := coding.NewDecoder(b.m)
	addWord := func(raw uint64, addr uint64, known bool) error {
		key := raw & kernel.Mask(p.dispW)
		if h, ok := p.handlers[key]; ok {
			if known {
				h.addrs = append(h.addrs, addr)
			}
			return nil
		}
		h := &wordHandler{word: key}
		if known {
			h.addrs = append(h.addrs, addr)
		}
		p.handlers[key] = h
		in, err := dec.DecodeRoot(root, bitvec.New(key, rr.Width))
		if err != nil {
			h.errMsg = fmt.Sprintf("word %#x does not decode: %v", key, err)
			return nil
		}
		return p.compileDispatch(b, h, in)
	}
	if err := addWord(0, 0, false); err != nil {
		return err
	}
	for i, w := range p.Words {
		if err := addWord(w, p.Origin+uint64(i), true); err != nil {
			return err
		}
	}
	return nil
}

// compileDispatch turns one decoded instance tree into a handler: the
// root's ACTIVATION names the bound instruction(s), each compiled in its
// own binding context at its own stage.
func (p *Program) compileDispatch(b *build, h *wordHandler, in *model.Instance) error {
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return unsup("decode %#x: %v", h.word, err)
		}
	}
	if in.Variant.Behavior != nil {
		return unsup("coding root %s has a BEHAVIOR section", in.Op.Name)
	}
	if in.Variant.Activation == nil {
		return nil
	}
	for _, item := range in.Variant.Activation.Items {
		ref, ok := item.(*ast.ActRef)
		if !ok {
			return unsup("decode activation item %T", item)
		}
		if ref.Delay != 0 {
			return unsup("decode activation with delay %d", ref.Delay)
		}
		child, ok := in.Bindings[ref.Name]
		if !ok {
			// An unbound name would fall back to the operation table; in
			// the decode tree it should always be a binding.
			op, isOp := b.m.Ops[ref.Name]
			if !isOp {
				return unsup("decode activates unknown %s", ref.Name)
			}
			child = model.NewInstance(op)
		}
		if child.Variant == nil {
			if err := child.ResolveVariant(); err != nil {
				return unsup("instruction %s: %v", child.Op.Name, err)
			}
		}
		if child.Variant.Activation != nil {
			return unsup("instruction %s has its own ACTIVATION", child.Op.Name)
		}
		stage, err := p.targetStage(child.Op)
		if err != nil {
			return err
		}
		// Instruction handlers never dispatch themselves: chained decode
		// would put a second packet in flight per cycle.
		body, err := compileHandler(b, child, false)
		if err != nil {
			return err
		}
		h.targets = append(h.targets, target{stage: stage, body: body, opName: child.Op.Name})
		if h.name == "" {
			h.name = child.Op.Name
		}
	}
	return nil
}

// checkDispatchSafety proves the generation-time dispatch resolution
// sound: the dispatch register only ever holds program-memory words
// (which the handler table covers exhaustively, zero included), because
// program memory is never written and every assignment to the register
// copies a program-memory element verbatim.
func (p *Program) checkDispatchSafety(b *build) error {
	if b.root == nil {
		return nil
	}
	// Notes: a latched dispatch register stays safe (decode reads the
	// committed value, which still only ever holds program words), and a
	// register narrower than the word is handled by masking the dispatch
	// keys to dispW.
	rr := p.rootRes
	for _, w := range b.writes {
		switch lv := w.LHS; lv.Kind {
		case behavior.LElem:
			if lv.Res == p.progMem {
				return unsup("behavior writes program memory %s", lv.Res.Name)
			}
		case behavior.LSlice:
			if lv.Base.Res == rr {
				return unsup("partial write to dispatch register %s", rr.Name)
			}
		case behavior.LScalar:
			if lv.Res != rr {
				continue
			}
			if w.RHS.Kind != behavior.EElem || w.RHS.Res != p.progMem {
				return unsup("dispatch register %s written from a non-program-memory value", rr.Name)
			}
		}
	}
	return nil
}

// build is the per-Compile shared state: the model, the program memory,
// the whole-program lowering, the dispatchable coding root, and the
// assignments collected for the dispatch-safety analysis.
type build struct {
	m       *model.Model
	progMem *model.Resource
	low     *behavior.Lowering
	root    *model.Operation
	writes  []*behavior.Stmt

	// dispatchSites counts coding-root calls. The schedule ring
	// reproduces the pipeline's packet ordering exactly only when at most
	// one packet per cycle receives staged work, so more than one
	// dispatch site falls back to the interpretive engine.
	dispatchSites int
}

func unsup(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrUnsupported, fmt.Sprintf(format, args...))
}

// check admits a lowered handler into the static-schedule class: only
// statements and operands the emitter renders, and coding-root calls only
// where the ring can schedule them. Everything else the lowering
// expresses — loops, switches, early exits, pipeline operations, banked
// and bit-select accesses, latched memories — is refused here and never
// reaches the emitter.
func (b *build) check(list []*behavior.Stmt, canDispatch bool) error {
	for _, s := range list {
		switch s.Kind {
		case behavior.SAssign:
			if err := checkLval(s.LHS); err != nil {
				return err
			}
			if err := checkExpr(s.RHS); err != nil {
				return err
			}
			b.writes = append(b.writes, s)
		case behavior.SIf:
			if err := checkExpr(s.Cond); err != nil {
				return err
			}
			if err := b.check(s.Then, canDispatch); err != nil {
				return err
			}
			if err := b.check(s.Else, canDispatch); err != nil {
				return err
			}
		case behavior.SPrint:
			for _, pp := range s.Parts {
				if !pp.IsStr {
					if err := checkExpr(pp.X); err != nil {
						return err
					}
				}
			}
		case behavior.SCall:
			if err := b.dispatch(s, canDispatch); err != nil {
				return err
			}
		default:
			return unsup("%s statement", s.Kind)
		}
	}
	return nil
}

// dispatch admits a coding-root call as the program's dispatch point.
func (b *build) dispatch(s *behavior.Stmt, canDispatch bool) error {
	op := s.Op
	if op == nil || !op.IsCodingRoot {
		return unsup("call through the execution context")
	}
	if b.root == nil {
		b.root = op
	}
	if op != b.root {
		return unsup("dispatch of a second coding root %s (plan targets %s)", op.Name, b.root.Name)
	}
	if !canDispatch {
		return unsup("dispatch from a handler past pipeline stage 0")
	}
	b.dispatchSites++
	if b.dispatchSites > 1 {
		return unsup("more than one dispatch site")
	}
	return nil
}

func checkLval(lv *behavior.LVal) error {
	switch lv.Kind {
	case behavior.LLocal, behavior.LScalar:
		return nil
	case behavior.LElem:
		if lv.Res.Latch {
			return unsup("latched memory %s", lv.Res.Name)
		}
		return checkExpr(lv.Idx)
	case behavior.LSlice:
		if lv.Base.Kind != behavior.LScalar {
			return unsup("bit-range assignment to a non-scalar lvalue")
		}
		return nil
	}
	return unsup("banked or bit-select assignment")
}

func checkExpr(e *behavior.Expr) error {
	if e == nil {
		return nil
	}
	switch e.Kind {
	case behavior.EBank, behavior.EBit:
		return unsup("banked or bit-select read")
	case behavior.EElem:
		if e.Res.Latch {
			return unsup("latched memory %s", e.Res.Name)
		}
	}
	for _, c := range []*behavior.Expr{e.A, e.B, e.C, e.Idx} {
		if err := checkExpr(c); err != nil {
			return err
		}
	}
	return nil
}
