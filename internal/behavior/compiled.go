package behavior

import (
	"errors"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
)

// This file is the compiled simulator's engine: each bound instance's
// behavior is lowered once to the typed IR (ir.go) and compiled to
// threaded code (threaded.go); re-executing the instruction then runs
// the closures. It is the Go analog of the paper's compiled simulation
// technique (translating the program to host code once).

// compiledBody is the executable form of one instance's behavior. A
// behavior the IR cannot express (ErrNotLowered) runs on the AST
// interpreter instead.
type compiledBody struct {
	code   sfn
	nloc   int
	interp bool
}

// compiledExpr is one compiled activation expression.
type compiledExpr struct {
	fn     efn
	w      int
	interp bool
}

// condKey identifies a compiled activation expression: the expression
// node within the context of one bound instance.
type condKey struct {
	in *model.Instance
	e  ast.Expr
}

// compileBody lowers and compiles in's behavior. A nil body with a nil
// error means the variant has no behavior.
func compileBody(l *Lowering, in *model.Instance) (*compiledBody, error) {
	stmts, nloc, err := l.Body(in)
	if errors.Is(err, ErrNotLowered) {
		return &compiledBody{interp: true}, nil
	}
	if err != nil {
		return nil, err
	}
	if in.Variant.Behavior == nil {
		return nil, nil
	}
	return &compiledBody{code: stmtsFn(stmts), nloc: nloc}, nil
}

func compileCond(l *Lowering, in *model.Instance, e ast.Expr) (*compiledExpr, error) {
	x, err := l.Expr(in, e)
	if errors.Is(err, ErrNotLowered) {
		return &compiledExpr{interp: true}, nil
	}
	if err != nil {
		return nil, err
	}
	return &compiledExpr{fn: exprFn(x), w: x.W}, nil
}

// RunCompiled executes the instance's behavior as compiled threaded
// code, compiling on first use. The compiled form is cached on the Exec
// keyed by instance identity (instances are immutable once bound), after
// the shared set. Like Run, each call starts a fresh runaway-loop budget,
// which compiled code charges once per loop iteration.
func RunCompiled(x *Exec, in *model.Instance) error {
	x.steps = 0
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return err
		}
	}
	cb, err := x.compiledFor(in)
	if err != nil || cb == nil {
		return err
	}
	if cb.interp {
		return x.runBehavior(in)
	}
	if cb.code == nil {
		return nil
	}
	// Locals live on a stack: behavior calls re-enter RunCompiled through
	// the Context, each with its own frame.
	outer, top := x.loc, len(x.frames)
	x.frames = append(x.frames, make([]uint64, cb.nloc)...)
	x.loc = x.frames[top:]
	c := cb.code(x)
	x.loc, x.frames = outer, x.frames[:top]
	return x.finish(c)
}

func (x *Exec) compiledFor(in *model.Instance) (*compiledBody, error) {
	if x.Shared != nil {
		if cb, ok := x.Shared.behaviors[in]; ok {
			return cb, nil
		}
	}
	if cb, ok := x.compiled[in]; ok {
		return cb, nil
	}
	cb, err := compileBody(&Lowering{M: x.M}, in)
	if err != nil {
		return nil, err
	}
	if x.compiled == nil {
		x.compiled = map[*model.Instance]*compiledBody{}
	}
	x.compiled[in] = cb
	x.Compiles++
	return cb, nil
}

// EvalCondCompiled evaluates a behavior expression as a boolean using a
// cached compiled closure (compiled-mode activation conditions).
func (x *Exec) EvalCondCompiled(in *model.Instance, e ast.Expr) (bool, error) {
	v, err := x.EvalValueCompiled(in, e)
	return v.Bool(), err
}

// EvalValueCompiled evaluates a behavior expression to a value using a
// cached compiled closure (compiled-mode activation switch tags).
func (x *Exec) EvalValueCompiled(in *model.Instance, e ast.Expr) (bitvec.Value, error) {
	key := condKey{in, e}
	ce, ok := x.Shared.lookupCond(key)
	if !ok {
		if ce, ok = x.conds[key]; !ok {
			var err error
			if ce, err = compileCond(&Lowering{M: x.M}, in, e); err != nil {
				return bitvec.Value{}, err
			}
			if x.conds == nil {
				x.conds = map[condKey]*compiledExpr{}
			}
			x.conds[key] = ce
			x.Compiles++
		}
	}
	if ce.interp {
		return x.EvalValue(in, e)
	}
	return bitvec.New(ce.fn(x), ce.w), nil
}

// CompiledSet is a set of compiled behaviors and activation expressions
// built once at artifact-construction time and then shared, read-only,
// by every execution engine created from that artifact. Engines consult
// the set before their private lazy caches, so simulators running
// concurrently off one artifact never compile (or write) anything the
// set already covers.
//
// Population (Precompile) must happen before the set is shared; after
// Freeze the set rejects further writes by panicking, which turns a
// build-order bug into a loud failure instead of a data race.
type CompiledSet struct {
	low       Lowering
	behaviors map[*model.Instance]*compiledBody
	conds     map[condKey]*compiledExpr
	compiles  uint64
	frozen    bool
}

// NewCompiledSet returns an empty, unfrozen set for the model.
func NewCompiledSet(m *model.Model) *CompiledSet {
	return &CompiledSet{
		low:       Lowering{M: m},
		behaviors: map[*model.Instance]*compiledBody{},
		conds:     map[condKey]*compiledExpr{},
	}
}

// Freeze marks the set read-only. Call once, before handing the set to a
// second goroutine.
func (cs *CompiledSet) Freeze() { cs.frozen = true }

// Len returns the number of pre-compiled behavior entries.
func (cs *CompiledSet) Len() int { return len(cs.behaviors) }

// Compiles returns the number of behaviors and activation expressions
// compiled while building the set.
func (cs *CompiledSet) Compiles() uint64 { return cs.compiles }

// Precompile compiles the behavior and every ACTIVATION expression of in
// and all instances bound below it into the set. It is best-effort: an
// instance whose behavior fails to compile is skipped and left to the
// per-engine lazy path, which reports the error if (and only if) the
// instance actually executes. No machine state is read. Instances
// reached here get their variant resolved eagerly, so sharing them later
// never triggers the lazy ResolveVariant write.
func (cs *CompiledSet) Precompile(in *model.Instance) {
	if cs.frozen {
		panic("behavior: Precompile on frozen CompiledSet")
	}
	cs.precompile(in, map[*model.Instance]bool{})
}

func (cs *CompiledSet) precompile(in *model.Instance, seen map[*model.Instance]bool) {
	if in == nil || seen[in] {
		return
	}
	seen[in] = true
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return
		}
	}
	if _, done := cs.behaviors[in]; !done {
		// A nil entry records "no behavior", same as the lazy cache.
		if cb, err := compileBody(&cs.low, in); err == nil {
			cs.behaviors[in] = cb
			cs.compiles++
		}
	}
	if in.Variant.Activation != nil {
		cs.precompileActs(in, in.Variant.Activation.Items)
	}
	for _, child := range in.Bindings {
		cs.precompile(child, seen)
	}
}

// precompileActs compiles the run-time expressions of an activation list:
// if conditions, switch tags and case values. Activated child operations
// themselves are covered by the bindings recursion (decoded operands) and
// the artifact's static-instance pass (named operations).
func (cs *CompiledSet) precompileActs(in *model.Instance, items []ast.ActItem) {
	for _, item := range items {
		switch it := item.(type) {
		case *ast.ActIf:
			cs.precompileCond(in, it.Cond)
			cs.precompileActs(in, it.Then)
			cs.precompileActs(in, it.Else)
		case *ast.ActSwitch:
			cs.precompileCond(in, it.Tag)
			for i := range it.Cases {
				c := &it.Cases[i]
				for _, ve := range c.Vals {
					cs.precompileCond(in, ve)
				}
				cs.precompileActs(in, c.Items)
			}
		}
	}
}

func (cs *CompiledSet) precompileCond(in *model.Instance, e ast.Expr) {
	key := condKey{in, e}
	if _, done := cs.conds[key]; done {
		return
	}
	if ce, err := compileCond(&cs.low, in, e); err == nil {
		cs.conds[key] = ce
		cs.compiles++
	}
}

// lookupCond returns the pre-compiled activation expression, if present.
// A nil set holds nothing.
func (cs *CompiledSet) lookupCond(key condKey) (*compiledExpr, bool) {
	if cs == nil {
		return nil, false
	}
	ce, ok := cs.conds[key]
	return ce, ok
}
