package behavior

import (
	"fmt"
	"strings"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/bitvec/kernel"
	"golisa/internal/model"
)

// ref is a resolved lvalue: a getter/setter pair over a storage location.
type ref struct {
	get func() val
	set func(bitvec.Value)
}

// convert coerces a value into a declared type.
func convert(v val, t ast.TypeSpec) bitvec.Value {
	if t.Signed() {
		return v.v.SignResize(t.Width)
	}
	return v.v.Resize(t.Width)
}

// eval evaluates an rvalue expression in frame f.
func (x *Exec) eval(f *frame, e ast.Expr) (val, error) {
	switch ex := e.(type) {
	case *ast.NumLit:
		if ex.Val > 0x7fffffff {
			return val{bitvec.New(ex.Val, 64), true}, nil
		}
		return val{bitvec.New(ex.Val, 32), true}, nil
	case *ast.StrLit:
		return val{}, fmt.Errorf("%s: string literal outside print()", ex.Pos)
	case *ast.Ident:
		return x.evalIdent(f, ex)
	case *ast.IndexExpr, *ast.BitsExpr:
		r, err := x.lvalue(f, e)
		if err != nil {
			return val{}, err
		}
		return r.get(), nil
	case *ast.UnaryExpr:
		v, err := x.eval(f, ex.X)
		if err != nil {
			return val{}, err
		}
		return unop(ex.Op, v)
	case *ast.BinaryExpr:
		// Short-circuit && and ||.
		if ex.Op == "&&" || ex.Op == "||" {
			l, err := x.eval(f, ex.L)
			if err != nil {
				return val{}, err
			}
			if (ex.Op == "&&" && !l.bool()) || (ex.Op == "||" && l.bool()) {
				return val{bitvec.FromBool(l.bool()), false}, nil
			}
			r, err := x.eval(f, ex.R)
			if err != nil {
				return val{}, err
			}
			return val{bitvec.FromBool(r.bool()), false}, nil
		}
		l, err := x.eval(f, ex.L)
		if err != nil {
			return val{}, err
		}
		r, err := x.eval(f, ex.R)
		if err != nil {
			return val{}, err
		}
		return binop(ex.Op, l, r)
	case *ast.CondExpr:
		c, err := x.eval(f, ex.C)
		if err != nil {
			return val{}, err
		}
		if c.bool() {
			return x.eval(f, ex.T)
		}
		return x.eval(f, ex.F)
	case *ast.CallExpr:
		return x.evalCall(f, ex)
	default:
		return val{}, fmt.Errorf("unhandled expression %T", e)
	}
}

// evalForEffect evaluates an expression statement. A bare identifier naming
// a binding or operation executes that operation's behavior (paper Example 3
// writes BEHAVIOR { Instruction } to dispatch the decoded instruction).
func (x *Exec) evalForEffect(f *frame, e ast.Expr) (val, error) {
	if id, ok := e.(*ast.Ident); ok {
		if f.lookup(id.Name) == nil {
			if _, isLabel := f.inst.Labels[id.Name]; !isLabel {
				if child, ok := f.inst.Bindings[id.Name]; ok {
					return val{}, x.callInstance(child)
				}
				if op, ok := x.M.Ops[id.Name]; ok {
					return val{}, x.callOperation(op)
				}
			}
		}
	}
	return x.eval(f, e)
}

func (x *Exec) evalIdent(f *frame, id *ast.Ident) (val, error) {
	if l := f.lookup(id.Name); l != nil {
		return val{l.v, l.typ.Signed()}, nil
	}
	if lv, ok := f.inst.Labels[id.Name]; ok {
		return val{lv, false}, nil
	}
	if child, ok := f.inst.Bindings[id.Name]; ok {
		return x.evalInstanceExpr(child)
	}
	if r := x.M.Resource(id.Name); r != nil {
		if r.IsMemory() {
			return val{}, fmt.Errorf("%s: memory resource %s needs an index", id.Pos, id.Name)
		}
		return val{x.S.Read(r), r.Signed}, nil
	}
	return val{}, fmt.Errorf("%s: unknown identifier %s", id.Pos, id.Name)
}

// evalInstanceExpr evaluates the EXPRESSION section of a bound child
// instance as an rvalue (the nml "mode" read path).
func (x *Exec) evalInstanceExpr(in *model.Instance) (val, error) {
	r, err := x.instanceExprRef(in)
	if err != nil {
		return val{}, err
	}
	return r.get(), nil
}

func (x *Exec) instanceExprRef(in *model.Instance) (ref, error) {
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return ref{}, err
		}
	}
	v := in.Variant
	if v.Expression == nil {
		return ref{}, fmt.Errorf("operation %s has no EXPRESSION section", in.Op.Name)
	}
	child := newFrame(in)
	return x.lvalue(child, v.Expression.X)
}

// lvalue resolves an assignable location.
func (x *Exec) lvalue(f *frame, e ast.Expr) (ref, error) {
	switch ex := e.(type) {
	case *ast.Ident:
		if l := f.lookup(ex.Name); l != nil {
			return ref{
				get: func() val { return val{l.v, l.typ.Signed()} },
				set: func(v bitvec.Value) { l.v = convert(val{v, false}, l.typ) },
			}, nil
		}
		if lv, ok := f.inst.Labels[ex.Name]; ok {
			// Labels are read-only operand fields.
			return ref{
				get: func() val { return val{lv, false} },
				set: func(bitvec.Value) {},
			}, fmt.Errorf("%s: label %s is not assignable", ex.Pos, ex.Name)
		}
		if child, ok := f.inst.Bindings[ex.Name]; ok {
			return x.instanceExprRef(child)
		}
		if r := x.M.Resource(ex.Name); r != nil {
			if r.IsMemory() {
				return ref{}, fmt.Errorf("%s: memory resource %s needs an index", ex.Pos, ex.Name)
			}
			return ref{
				get: func() val { return val{x.S.Read(r), r.Signed} },
				set: func(v bitvec.Value) { x.S.Write(r, v) },
			}, nil
		}
		return ref{}, fmt.Errorf("%s: unknown identifier %s", ex.Pos, ex.Name)

	case *ast.IndexExpr:
		return x.indexRef(f, ex)

	case *ast.BitsExpr:
		base, err := x.lvalue(f, ex.X)
		if err != nil {
			return ref{}, err
		}
		hiV, err := x.eval(f, ex.Hi)
		if err != nil {
			return ref{}, err
		}
		loV, err := x.eval(f, ex.Lo)
		if err != nil {
			return ref{}, err
		}
		hi, lo := int(hiV.v.Int()), int(loV.v.Int())
		return ref{
			get: func() val { return val{base.get().v.Slice(hi, lo), false} },
			set: func(v bitvec.Value) {
				cur := base.get().v
				base.set(cur.InsertSlice(hi, lo, v.Uint()))
			},
		}, nil

	default:
		return ref{}, fmt.Errorf("expression %T is not assignable", e)
	}
}

// indexRef resolves x[i] (and banked x[b][i]) element references.
func (x *Exec) indexRef(f *frame, ex *ast.IndexExpr) (ref, error) {
	// Banked access: inner expression is itself an index over a banked
	// memory resource.
	if inner, ok := ex.X.(*ast.IndexExpr); ok {
		if rid, ok := inner.X.(*ast.Ident); ok {
			if r := x.M.Resource(rid.Name); r != nil && r.Banks > 0 {
				bankV, err := x.eval(f, inner.I)
				if err != nil {
					return ref{}, err
				}
				idxV, err := x.eval(f, ex.I)
				if err != nil {
					return ref{}, err
				}
				bank, addr := bankV.v.Uint(), idxV.v.Uint()
				return ref{
					get: func() val {
						v, err := x.S.ReadBanked(r, bank, addr)
						if err != nil {
							v = bitvec.New(0, r.Width)
						}
						return val{v, r.Signed}
					},
					set: func(v bitvec.Value) {
						_ = x.S.WriteBanked(r, bank, addr, v)
					},
				}, nil
			}
		}
	}
	rid, ok := ex.X.(*ast.Ident)
	if !ok {
		return ref{}, fmt.Errorf("%s: cannot index a non-resource expression", ex.Pos)
	}
	r := x.M.Resource(rid.Name)
	if r == nil {
		// Indexing a binding: child EXPRESSION must itself be indexable —
		// not supported; point the modeler at the resource.
		return ref{}, fmt.Errorf("%s: unknown memory resource %s", ex.Pos, rid.Name)
	}
	if !r.IsMemory() {
		// Scalar indexed: treat as bit select r[i].
		iV, err := x.eval(f, ex.I)
		if err != nil {
			return ref{}, err
		}
		bit := int(iV.v.Int())
		return ref{
			get: func() val { return val{bitvec.New(x.S.Read(r).Bit(bit), 1), false} },
			set: func(v bitvec.Value) {
				x.S.Write(r, x.S.Read(r).SetBit(bit, v.Uint()))
			},
		}, nil
	}
	iV, err := x.eval(f, ex.I)
	if err != nil {
		return ref{}, err
	}
	addr := iV.v.Uint()
	return ref{
		get: func() val {
			v, err := x.S.ReadElem(r, addr)
			if err != nil {
				v = bitvec.New(0, r.Width)
			}
			return val{v, r.Signed}
		},
		set: func(v bitvec.Value) {
			_ = x.S.WriteElem(r, addr, v)
		},
	}, nil
}

// callOperation executes an operation without operands (a plain behavior
// call to a helper operation). Under a simulator context the call goes
// through the full execute path (decode, behavior, activation).
func (x *Exec) callOperation(op *model.Operation) error {
	if x.Ctx != nil {
		return x.Ctx.CallOp(op)
	}
	in := model.NewInstance(op)
	return x.runBehavior(in)
}

// callInstance executes a bound child instance.
func (x *Exec) callInstance(in *model.Instance) error {
	if x.Ctx != nil {
		return x.Ctx.CallInstance(in)
	}
	return x.runBehavior(in)
}

// evalCall dispatches builtins, pipeline operations and operation calls.
func (x *Exec) evalCall(f *frame, c *ast.CallExpr) (val, error) {
	if strings.Contains(c.Name, ".") {
		return x.pipeCall(c)
	}
	if IsBuiltin(c.Name) {
		return x.builtin(f, c)
	}
	// Binding call: Group() executes the bound member's behavior.
	if child, ok := f.inst.Bindings[c.Name]; ok {
		if len(c.Args) != 0 {
			return val{}, fmt.Errorf("%s: operation call %s takes no arguments", c.Pos, c.Name)
		}
		return val{}, x.callInstance(child)
	}
	if op, ok := x.M.Ops[c.Name]; ok {
		if len(c.Args) != 0 {
			return val{}, fmt.Errorf("%s: operation call %s takes no arguments", c.Pos, c.Name)
		}
		return val{}, x.callOperation(op)
	}
	return val{}, fmt.Errorf("%s: unknown function or operation %s", c.Pos, c.Name)
}

func (x *Exec) pipeCall(c *ast.CallExpr) (val, error) {
	p, stage, op, err := resolvePipeCall(x.M, c)
	if err != nil {
		return val{}, err
	}
	if x.Ctx == nil {
		return val{}, fmt.Errorf("%s: pipeline operation %s outside simulation context", c.Pos, c.Name)
	}
	return val{}, x.Ctx.PipeOp(p, stage, op)
}

func (x *Exec) builtin(f *frame, c *ast.CallExpr) (val, error) {
	b, err := lookupBuiltin(c)
	if err != nil {
		return val{}, err
	}
	switch c.Name {
	case "wait_states":
		return waitStates(x.M, c)
	case "print":
		line, err := formatPrint(c.Args, func(i int) (val, error) { return x.eval(f, c.Args[i]) })
		if err != nil {
			return val{}, err
		}
		if x.Ctx != nil {
			x.Ctx.Print(line)
		}
		return val{}, nil
	}
	var argv [maxBuiltinArgs]val
	for i, a := range c.Args {
		if argv[i], err = x.eval(f, a); err != nil {
			return val{}, err
		}
	}
	return b.fn(argv[0], argv[1], argv[2]), nil
}

// --- operators ----------------------------------------------------------------

func unop(op string, v val) (val, error) {
	switch op {
	case "-":
		return val{bitvec.Neg(v.v), true}, nil
	case "+":
		return v, nil
	case "!":
		return val{bitvec.FromBool(!v.bool()), false}, nil
	case "~":
		return val{bitvec.Not(v.v), v.signed}, nil
	}
	return val{}, fmt.Errorf("unknown unary operator %s", op)
}

func binop(op string, l, r val) (val, error) {
	signed := l.signed || r.signed
	boolv := func(b bool) (val, error) { return val{bitvec.FromBool(b), false}, nil }
	cmp := func() int {
		if signed {
			// Widen both to a common width preserving sign.
			w := l.v.Width()
			if r.v.Width() > w {
				w = r.v.Width()
			}
			a, b := l.v, r.v
			if l.signed {
				a = a.SignResize(w)
			} else {
				a = a.Resize(w)
			}
			if r.signed {
				b = b.SignResize(w)
			} else {
				b = b.Resize(w)
			}
			return bitvec.CmpS(a, b)
		}
		return bitvec.CmpU(l.v, r.v)
	}
	// Arithmetic widening: sign-extend signed operands to the result width.
	widen := func() (bitvec.Value, bitvec.Value, int) {
		w := l.v.Width()
		if r.v.Width() > w {
			w = r.v.Width()
		}
		a, b := l.v, r.v
		if l.signed {
			a = a.SignResize(w)
		} else {
			a = a.Resize(w)
		}
		if r.signed {
			b = b.SignResize(w)
		} else {
			b = b.Resize(w)
		}
		return a, b, w
	}
	switch op {
	case "+":
		a, b, _ := widen()
		return val{bitvec.Add(a, b), signed}, nil
	case "-":
		a, b, _ := widen()
		return val{bitvec.Sub(a, b), signed}, nil
	case "*":
		a, b, _ := widen()
		return val{bitvec.Mul(a, b), signed}, nil
	case "/":
		a, b, w := widen()
		if signed {
			return val{bitvec.DivS(a, b), true}, nil
		}
		return val{bitvec.New(kernel.DivU(a.Uint(), b.Uint(), w), w), false}, nil
	case "%":
		a, b, w := widen()
		if signed {
			return val{bitvec.RemS(a, b), true}, nil
		}
		return val{bitvec.New(kernel.RemU(a.Uint(), b.Uint(), w), w), false}, nil
	case "&":
		a, b, _ := widen()
		return val{bitvec.And(a, b), signed}, nil
	case "|":
		a, b, _ := widen()
		return val{bitvec.Or(a, b), signed}, nil
	case "^":
		a, b, _ := widen()
		return val{bitvec.Xor(a, b), signed}, nil
	case "<<":
		return val{bitvec.Shl(l.v, uint(r.v.Uint()&63)), l.signed}, nil
	case ">>":
		if l.signed {
			return val{bitvec.ShrS(l.v, uint(r.v.Uint()&63)), true}, nil
		}
		return val{bitvec.ShrU(l.v, uint(r.v.Uint()&63)), false}, nil
	case "==":
		a, b, _ := widen()
		return boolv(a.Uint() == b.Uint())
	case "!=":
		a, b, _ := widen()
		return boolv(a.Uint() != b.Uint())
	case "<":
		return boolv(cmp() < 0)
	case "<=":
		return boolv(cmp() <= 0)
	case ">":
		return boolv(cmp() > 0)
	case ">=":
		return boolv(cmp() >= 0)
	case "&&":
		return boolv(l.bool() && r.bool())
	case "||":
		return boolv(l.bool() || r.bool())
	}
	return val{}, fmt.Errorf("unknown binary operator %s", op)
}

// EvalCond evaluates a behavior expression in the context of an instance
// (used by activation-section conditions).
func (x *Exec) EvalCond(in *model.Instance, e ast.Expr) (bool, error) {
	f := newFrame(in)
	v, err := x.eval(f, e)
	if err != nil {
		return false, err
	}
	return v.bool(), nil
}

// EvalValue evaluates a behavior expression to a value in the context of an
// instance (used by activation switch tags and tests).
func (x *Exec) EvalValue(in *model.Instance, e ast.Expr) (bitvec.Value, error) {
	f := newFrame(in)
	v, err := x.eval(f, e)
	if err != nil {
		return bitvec.Value{}, err
	}
	return v.v, nil
}
