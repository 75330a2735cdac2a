// Package behavior executes the C-subset behavior language of LISA
// operations. It holds the AST-walking interpreter, the interpretive
// simulator's engine and the reference every other engine is checked
// against, and the one typed lowering of behaviors (ir.go): an IR over
// static widths that the threaded-code backend (threaded.go) runs as the
// compiled simulator's engine (compiled.go), and that gosim's emitter
// renders as Go source.
//
// Execution happens in the context of a bound model.Instance: identifiers
// resolve, in order, to local variables, decoded label fields, group/
// reference bindings (via the child's EXPRESSION section), and machine
// resources.
package behavior

import (
	"fmt"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
	"golisa/internal/trace"
)

// Context supplies the simulator hooks available to behavior code.
// Implementations live in internal/sim; a nil Context rejects pipeline
// operations and discards prints.
type Context interface {
	// PipeOp performs a pipeline built-in: op is "shift", "stall" or
	// "flush"; stage is -1 for whole-pipeline operations.
	PipeOp(p *model.Pipeline, stage int, op string) error
	// Print emits model output (the print(...) builtin).
	Print(s string)
	// CallOp executes a named operation called from behavior code. The
	// simulator implements the full execute path (decode for coding roots,
	// behavior, activation) in the caller's control step.
	CallOp(op *model.Operation) error
	// CallInstance executes a bound group/reference instance called from
	// behavior code.
	CallInstance(in *model.Instance) error
}

// val is a runtime value: bit-accurate payload plus signedness, which
// drives comparisons, division, right shift and widening.
type val struct {
	v      bitvec.Value
	signed bool
}

func (x val) bool() bool { return x.v.Bool() }

// Exec is an execution engine bound to one model and one machine state.
type Exec struct {
	M   *model.Model
	S   *model.State
	Ctx Context

	// Budget bounds the number of statements executed per Run call to turn
	// runaway model loops into errors instead of hangs. Zero means the
	// default of 1<<22.
	Budget int

	// Obs, when non-nil, receives per-operation behavior statement counts
	// (OnBehavior) for cycle attribution. Nil costs one comparison per Run.
	Obs trace.Observer

	// Shared, when non-nil, is a read-only set of behaviors compiled at
	// artifact build time (see sim.Artifact). Lookups consult it before
	// the per-engine lazy caches; the lazy caches only ever hold entries
	// the shared set lacks, so engines sharing one set never write to
	// shared memory.
	Shared *CompiledSet

	// Compiles counts behaviors and activation expressions compiled by
	// this engine at run time. Pre-compiled shared entries do not count;
	// a fully pre-warmed artifact therefore keeps this at zero across a
	// whole run, which the fleet's zero-recompilation assertion checks.
	Compiles uint64

	steps    int
	stmts    uint64 // monotonically increasing statement counter (tracing)
	compiled map[*model.Instance]*compiledBody
	conds    map[condKey]*compiledExpr

	// Compiled code state: the running body's locals, the stack their
	// frames live on, and the error of the current compiled run.
	loc    []uint64
	frames []uint64
	err    error

	// guards is the stack of condition expressions enclosing the statement
	// currently executing (if conditions, switch tags), maintained only
	// while an observer is attached. The simulator reads it to classify
	// pipeline stall/flush requests made from behavior code.
	guards []ast.Expr
}

// Guards returns the live stack of condition expressions guarding the
// currently executing statement, outermost first. The slice is owned by
// the engine and must not be retained. It is populated only while Obs is
// non-nil (hazard attribution needs an observer to deliver to).
func (x *Exec) Guards() []ast.Expr { return x.guards }

// control-flow signals, threaded as errors.
type ctrlSignal int

const (
	ctrlBreak ctrlSignal = iota
	ctrlContinue
	ctrlReturn
)

func (c ctrlSignal) Error() string {
	switch c {
	case ctrlBreak:
		return "break outside loop"
	case ctrlContinue:
		return "continue outside loop"
	default:
		return "return"
	}
}

// frame is one behavior invocation's local-variable environment with block
// scoping.
type frame struct {
	inst   *model.Instance
	scopes []map[string]*local
}

type local struct {
	typ ast.TypeSpec
	v   bitvec.Value
}

// Scope maps are allocated lazily: frames without local variables (the
// common case for activation conditions and operand expressions) never
// allocate.
func newFrame(in *model.Instance) *frame {
	return &frame{inst: in, scopes: []map[string]*local{nil}}
}

func (f *frame) push() { f.scopes = append(f.scopes, nil) }
func (f *frame) pop()  { f.scopes = f.scopes[:len(f.scopes)-1] }

func (f *frame) lookup(name string) *local {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if l, ok := f.scopes[i][name]; ok {
			return l
		}
	}
	return nil
}

func (f *frame) declare(name string, typ ast.TypeSpec, v bitvec.Value) error {
	top := f.scopes[len(f.scopes)-1]
	if top == nil {
		top = map[string]*local{}
		f.scopes[len(f.scopes)-1] = top
	}
	if _, dup := top[name]; dup {
		return fmt.Errorf("redeclared local %s", name)
	}
	top[name] = &local{typ: typ, v: v.Resize(typ.Width)}
	return nil
}

// Run executes the BEHAVIOR section of the instance's resolved variant.
// Instances without behavior are a no-op.
func (x *Exec) Run(in *model.Instance) error {
	x.steps = 0
	if x.Obs == nil {
		return x.runBehavior(in)
	}
	start := x.stmts
	err := x.runBehavior(in)
	// Statement counts are inclusive of operations called directly from
	// behavior code (which re-enter Run and report themselves too).
	if d := x.stmts - start; d > 0 {
		x.Obs.OnBehavior(in.Op.Name, d)
	}
	return err
}

func (x *Exec) runBehavior(in *model.Instance) error {
	v := in.Variant
	if v == nil {
		if err := in.ResolveVariant(); err != nil {
			return err
		}
		v = in.Variant
	}
	if v.Behavior == nil {
		return nil
	}
	f := newFrame(in)
	err := x.execBlock(f, v.Behavior.Body)
	if sig, ok := err.(ctrlSignal); ok && sig == ctrlReturn {
		return nil
	}
	return err
}

func (x *Exec) budget() error {
	x.steps++
	x.stmts++
	limit := x.Budget
	if limit == 0 {
		limit = 1 << 22
	}
	if x.steps > limit {
		return fmt.Errorf("behavior execution exceeded %d statements (runaway loop?)", limit)
	}
	return nil
}

func (x *Exec) execBlock(f *frame, b *ast.Block) error {
	f.push()
	defer f.pop()
	for _, s := range b.Stmts {
		if err := x.execStmt(f, s); err != nil {
			return err
		}
	}
	return nil
}

func (x *Exec) execStmt(f *frame, s ast.Stmt) error {
	if err := x.budget(); err != nil {
		return err
	}
	switch st := s.(type) {
	case *ast.Block:
		return x.execBlock(f, st)
	case *ast.EmptyStmt:
		return nil
	case *ast.DeclStmt:
		init := bitvec.New(0, st.Type.Width)
		if st.Init != nil {
			v, err := x.eval(f, st.Init)
			if err != nil {
				return err
			}
			init = convert(v, st.Type)
		}
		return f.declare(st.Name, st.Type, init)
	case *ast.ExprStmt:
		_, err := x.evalForEffect(f, st.X)
		return err
	case *ast.AssignStmt:
		return x.execAssign(f, st)
	case *ast.IncDecStmt:
		ref, err := x.lvalue(f, st.X)
		if err != nil {
			return err
		}
		cur := ref.get()
		one := bitvec.New(1, cur.v.Width())
		if st.Op == "++" {
			ref.set(bitvec.Add(cur.v, one))
		} else {
			ref.set(bitvec.Sub(cur.v, one))
		}
		return nil
	case *ast.IfStmt:
		c, err := x.eval(f, st.Cond)
		if err != nil {
			return err
		}
		body := st.Then
		if !c.bool() {
			body = st.Else
		}
		if body == nil {
			return nil
		}
		// Track the guarding condition for hazard attribution (popped on
		// every exit path, including control-flow signals).
		track := x.Obs != nil
		if track {
			x.guards = append(x.guards, st.Cond)
		}
		err = x.execStmt(f, body)
		if track {
			x.guards = x.guards[:len(x.guards)-1]
		}
		return err
	case *ast.WhileStmt:
		for {
			if err := x.budget(); err != nil {
				return err
			}
			c, err := x.eval(f, st.Cond)
			if err != nil {
				return err
			}
			if !c.bool() {
				return nil
			}
			done, err := x.loopBody(f, st.Body)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
		}
	case *ast.DoWhileStmt:
		for {
			if err := x.budget(); err != nil {
				return err
			}
			done, err := x.loopBody(f, st.Body)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			c, err := x.eval(f, st.Cond)
			if err != nil {
				return err
			}
			if !c.bool() {
				return nil
			}
		}
	case *ast.ForStmt:
		f.push()
		defer f.pop()
		if st.Init != nil {
			if err := x.execStmt(f, st.Init); err != nil {
				return err
			}
		}
		for {
			if err := x.budget(); err != nil {
				return err
			}
			if st.Cond != nil {
				c, err := x.eval(f, st.Cond)
				if err != nil {
					return err
				}
				if !c.bool() {
					return nil
				}
			}
			done, err := x.loopBody(f, st.Body)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			if st.Post != nil {
				if err := x.execStmt(f, st.Post); err != nil {
					return err
				}
			}
		}
	case *ast.SwitchStmt:
		tag, err := x.eval(f, st.Tag)
		if err != nil {
			return err
		}
		var deflt *ast.SwitchCase
		for i := range st.Cases {
			c := &st.Cases[i]
			if c.Default {
				deflt = c
				continue
			}
			for _, ve := range c.Vals {
				cv, err := x.eval(f, ve)
				if err != nil {
					return err
				}
				if cv.v.Uint() == tag.v.Uint() {
					return x.execGuardedCase(f, st.Tag, c)
				}
			}
		}
		if deflt != nil {
			return x.execGuardedCase(f, st.Tag, deflt)
		}
		return nil
	case *ast.BreakStmt:
		return ctrlBreak
	case *ast.ContinueStmt:
		return ctrlContinue
	case *ast.ReturnStmt:
		if st.X != nil {
			if _, err := x.eval(f, st.X); err != nil {
				return err
			}
		}
		return ctrlReturn
	default:
		return fmt.Errorf("unhandled statement %T", s)
	}
}

// execGuardedCase runs a switch case with the switch tag on the guard
// stack, so stalls issued inside the case attribute to the tag's
// resources.
func (x *Exec) execGuardedCase(f *frame, tag ast.Expr, c *ast.SwitchCase) error {
	track := x.Obs != nil
	if track {
		x.guards = append(x.guards, tag)
	}
	err := x.execCaseBody(f, c)
	if track {
		x.guards = x.guards[:len(x.guards)-1]
	}
	return err
}

func (x *Exec) execCaseBody(f *frame, c *ast.SwitchCase) error {
	f.push()
	defer f.pop()
	for _, s := range c.Stmts {
		err := x.execStmt(f, s)
		if sig, ok := err.(ctrlSignal); ok && sig == ctrlBreak {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// loopBody executes one loop iteration; done reports that a break statement
// requested loop termination.
func (x *Exec) loopBody(f *frame, body ast.Stmt) (done bool, err error) {
	err = x.execStmt(f, body)
	if sig, ok := err.(ctrlSignal); ok {
		switch sig {
		case ctrlBreak:
			return true, nil
		case ctrlContinue:
			return false, nil
		}
	}
	return false, err
}

func (x *Exec) execAssign(f *frame, st *ast.AssignStmt) error {
	ref, err := x.lvalue(f, st.LHS)
	if err != nil {
		return err
	}
	rhs, err := x.eval(f, st.RHS)
	if err != nil {
		return err
	}
	if st.Op == "=" {
		ref.set(rhs.v)
		return nil
	}
	cur := ref.get()
	res, err := binop(st.Op[:len(st.Op)-1], cur, rhs)
	if err != nil {
		return err
	}
	ref.set(res.v)
	return nil
}
