package behavior

import (
	"fmt"
	"strconv"

	"golisa/internal/ast"
	"golisa/internal/bitvec/kernel"
)

// The threaded-code backend compiles the IR into one Go closure per
// expression node and statement, specialized at compile time on
// operator, width and signedness, so re-executing a bound instruction
// runs with no AST walking, no name lookups and no bitvec boxing. Every
// operator whose result depends on more than a mask calls the semantic
// kernel. The closures read and write machine state only through the
// Exec they are given — its model.State, locals, Context and guard
// stack — so one compiled body is shared by every engine that runs it.

type efn func(*Exec) uint64

// ctl is how a statement finished: normally, by a control-flow
// statement, or with the run's error stored in Exec.err.
type ctl uint8

const (
	ctlNone ctl = iota
	ctlBreak
	ctlContinue
	ctlReturn
	ctlErr
)

type sfn func(*Exec) ctl

// fail records err as the run's error.
func (x *Exec) fail(err error) ctl {
	x.err = err
	return ctlErr
}

// finish turns how a compiled body ended into the error Run would
// report: break or continue outside a loop are errors, a return is not.
func (x *Exec) finish(c ctl) error {
	switch c {
	case ctlErr:
		err := x.err
		x.err = nil
		return err
	case ctlBreak:
		return ctrlBreak
	case ctlContinue:
		return ctrlContinue
	}
	return nil
}

// ---- statements ----------------------------------------------------------

func stmtsFn(list []*Stmt) sfn {
	fns := make([]sfn, 0, len(list))
	for _, s := range list {
		if f := stmtFn(s); f != nil {
			fns = append(fns, f)
		}
	}
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return fns[0]
	}
	return func(x *Exec) ctl {
		for _, f := range fns {
			if c := f(x); c != ctlNone {
				return c
			}
		}
		return ctlNone
	}
}

// guarded runs body with g on the hazard guard stack while an observer
// is attached, popping it on every exit path.
func guarded(x *Exec, g ast.Expr, body sfn) ctl {
	if x.Obs == nil || g == nil {
		return body(x)
	}
	x.guards = append(x.guards, g)
	c := body(x)
	x.guards = x.guards[:len(x.guards)-1]
	return c
}

func stmtFn(s *Stmt) sfn {
	switch s.Kind {
	case SAssign:
		rf := exprFn(s.RHS)
		st := storeFn(s.LHS, s.RHS.W)
		return func(x *Exec) ctl {
			st(x, rf(x))
			return ctlNone
		}
	case SIf:
		cf := exprFn(s.Cond)
		tf, ef := stmtsFn(s.Then), stmtsFn(s.Else)
		g := s.Guard
		return func(x *Exec) ctl {
			body := ef
			if cf(x) != 0 {
				body = tf
			}
			if body == nil {
				return ctlNone
			}
			return guarded(x, g, body)
		}
	case SPrint:
		return printFn(s.Parts)
	case SCall:
		if in := s.Inst; in != nil {
			return func(x *Exec) ctl {
				if err := x.callInstance(in); err != nil {
					return x.fail(err)
				}
				return ctlNone
			}
		}
		op := s.Op
		return func(x *Exec) ctl {
			if err := x.callOperation(op); err != nil {
				return x.fail(err)
			}
			return ctlNone
		}
	case SPipe:
		p, stage, op := s.Pipe, s.Stage, s.PipeOp
		return func(x *Exec) ctl {
			if x.Ctx == nil {
				return x.fail(fmt.Errorf("pipeline operation %s.%s outside simulation context", p.Name, op))
			}
			if err := x.Ctx.PipeOp(p, stage, op); err != nil {
				return x.fail(err)
			}
			return ctlNone
		}
	case SLoop:
		return loopFn(s)
	case SSwitch:
		return switchFn(s)
	case SBreak:
		return func(*Exec) ctl { return ctlBreak }
	case SContinue:
		return func(*Exec) ctl { return ctlContinue }
	case SReturn:
		return func(*Exec) ctl { return ctlReturn }
	}
	panic("behavior: unknown IR statement kind")
}

// loopFn runs a loop with the interpreter's runaway-loop budget charged
// once per iteration.
func loopFn(s *Stmt) sfn {
	var cf efn
	if s.Cond != nil {
		cf = exprFn(s.Cond)
	}
	body, post := stmtsFn(s.Then), stmtsFn(s.Post)
	do := s.Do
	return func(x *Exec) ctl {
		for {
			if err := x.budget(); err != nil {
				return x.fail(err)
			}
			if !do && cf != nil && cf(x) == 0 {
				return ctlNone
			}
			if body != nil {
				switch c := body(x); c {
				case ctlBreak:
					return ctlNone
				case ctlReturn, ctlErr:
					return c
				}
			}
			if do && cf != nil && cf(x) == 0 {
				return ctlNone
			}
			if post != nil {
				if c := post(x); c != ctlNone {
					return c
				}
			}
		}
	}
}

// switchFn runs the first case with a value equal to the tag's payload,
// else the default; break leaves the case, and there is no fallthrough.
func switchFn(s *Stmt) sfn {
	type arm struct {
		vals []efn
		body sfn
	}
	tf := exprFn(s.Cond)
	var arms []arm
	var deflt sfn
	hasDeflt := false
	for _, c := range s.Cases {
		body := stmtsFn(c.Body)
		if body == nil {
			body = func(*Exec) ctl { return ctlNone }
		}
		if c.Default {
			deflt, hasDeflt = body, true
			continue
		}
		a := arm{body: body}
		for _, v := range c.Vals {
			a.vals = append(a.vals, exprFn(v))
		}
		arms = append(arms, a)
	}
	g := s.Guard
	return func(x *Exec) ctl {
		tag := tf(x)
		body, found := deflt, hasDeflt
	search:
		for i := range arms {
			for _, vf := range arms[i].vals {
				if vf(x) == tag {
					body, found = arms[i].body, true
					break search
				}
			}
		}
		if !found {
			return ctlNone
		}
		if c := guarded(x, g, body); c != ctlBreak {
			return c
		}
		return ctlNone
	}
}

// printFn renders print(): string literals verbatim, values as signed or
// unsigned decimals by their static signedness, space-separated.
func printFn(parts []PrintPart) sfn {
	type part struct {
		str    string
		fn     efn
		w      int
		signed bool
	}
	ps := make([]part, len(parts))
	for i, p := range parts {
		if p.IsStr {
			ps[i] = part{str: p.Str}
		} else {
			ps[i] = part{fn: exprFn(p.X), w: p.X.W, signed: p.X.Signed}
		}
	}
	return func(x *Exec) ctl {
		var b []byte
		for i, p := range ps {
			if i > 0 {
				b = append(b, ' ')
			}
			switch {
			case p.fn == nil:
				b = append(b, p.str...)
			case p.signed:
				b = strconv.AppendInt(b, int64(kernel.SignExt(p.fn(x), p.w)), 10)
			default:
				b = strconv.AppendUint(b, p.fn(x), 10)
			}
		}
		if x.Ctx != nil {
			x.Ctx.Print(string(b))
		}
		return ctlNone
	}
}

// storeFn compiles a store of a value of static width srcW into lv.
func storeFn(lv *LVal, srcW int) func(*Exec, uint64) {
	switch lv.Kind {
	case LLocal:
		idx := lv.Local.Idx
		mk := kernel.Mask(lv.Local.W)
		if lv.Local.Signed {
			// convert(): signed locals sign-extend from the VALUE's width.
			return func(x *Exec, v uint64) { x.loc[idx] = kernel.SignExt(v, srcW) & mk }
		}
		return func(x *Exec, v uint64) { x.loc[idx] = v & mk }
	case LScalar:
		r := lv.Res
		return func(x *Exec, v uint64) { x.S.Set(r, v) }
	case LElem:
		r := lv.Res
		base, size := r.Base, r.Size
		af := exprFn(lv.Idx)
		return func(x *Exec, v uint64) {
			if a := af(x); a >= base && a-base < size {
				x.S.SetElem(r, a, v)
			}
		}
	case LBank:
		slot, base, size, banks := lv.Res.Slot, lv.Res.Base, lv.Res.Size, uint64(lv.Res.Banks)
		mk := kernel.Mask(lv.Res.Width)
		bf, af := exprFn(lv.Bank), exprFn(lv.Idx)
		return func(x *Exec, v uint64) {
			b, a := bf(x), af(x)
			if b < banks && a >= base && a-base < size {
				x.S.Arrays[slot][b*size+a-base] = v & mk
			}
		}
	case LSlice:
		cur := exprFn(load(lv.Base))
		bw := load(lv.Base).W
		st := storeFn(lv.Base, bw)
		lo := uint(lv.Lo)
		mm := kernel.Mask(lv.Hi-lv.Lo+1) << lo
		bmk := kernel.Mask(bw)
		return func(x *Exec, v uint64) {
			st(x, ((cur(x)&^mm)|((v<<lo)&mm))&bmk)
		}
	default: // LBit
		cur := exprFn(load(lv.Base))
		bw := load(lv.Base).W
		st := storeFn(lv.Base, bw)
		bit := bitIndexFn(lv.Idx)
		return func(x *Exec, v uint64) {
			c := cur(x)
			if i := bit(x); i >= 0 && i < int64(bw) {
				c = c&^(1<<uint(i)) | (v&1)<<uint(i)
			}
			st(x, c)
		}
	}
}

// bitIndexFn yields a bit-select index as the interpreter reads it: the
// index value sign-extended from its own width.
func bitIndexFn(e *Expr) func(*Exec) int64 {
	f, w := exprFn(e), e.W
	return func(x *Exec) int64 { return int64(kernel.SignExt(f(x), w)) }
}

// ---- expressions ---------------------------------------------------------

// widenFn wraps a child closure with the arithmetic-widening conversion
// to the common width: sign-extension for signed operands, the identity
// for unsigned ones (payloads are already zero-extended).
func widenFn(c *Expr, cf efn, to int) efn {
	if c.Signed && c.W < to {
		w := c.W
		mk := kernel.Mask(to)
		return func(x *Exec) uint64 { return kernel.SignExt(cf(x), w) & mk }
	}
	return cf
}

// cmpIntFn yields the operand as the int64 the interpreter's signed
// compare sees: signed operands sign-extend from their own width,
// unsigned operands from the common width (so an unsigned value with the
// top bit of the common width set compares negative, exactly like
// Resize(w) followed by CmpS).
func cmpIntFn(c *Expr, cf efn, w int) func(*Exec) int64 {
	if c.Signed {
		w = c.W
	}
	return func(x *Exec) int64 { return int64(kernel.SignExt(cf(x), w)) }
}

func exprFn(e *Expr) efn {
	switch e.Kind {
	case EConst:
		k := e.K
		return func(*Exec) uint64 { return k }
	case ELocal:
		idx := e.Local.Idx
		return func(x *Exec) uint64 { return x.loc[idx] }
	case EScalar:
		slot := e.Res.Slot
		return func(x *Exec) uint64 { return x.S.Scalars[slot] }
	case EElem:
		slot, base, size := e.Res.Slot, e.Res.Base, e.Res.Size
		if e.Idx.Kind == EConst {
			a := e.Idx.K
			if a < base || a-base >= size {
				return func(*Exec) uint64 { return 0 }
			}
			i := a - base
			return func(x *Exec) uint64 { return x.S.Arrays[slot][i] }
		}
		af := exprFn(e.Idx)
		return func(x *Exec) uint64 {
			if a := af(x); a >= base && a-base < size {
				return x.S.Arrays[slot][a-base]
			}
			return 0
		}
	case EBank:
		slot, base, size, banks := e.Res.Slot, e.Res.Base, e.Res.Size, uint64(e.Res.Banks)
		bf, af := exprFn(e.Bank), exprFn(e.Idx)
		return func(x *Exec) uint64 {
			if b, a := bf(x), af(x); b < banks && a >= base && a-base < size {
				return x.S.Arrays[slot][b*size+a-base]
			}
			return 0
		}
	case ESlice:
		af := exprFn(e.A)
		lo := uint(e.N)
		mk := kernel.Mask(e.W)
		return func(x *Exec) uint64 { return (af(x) >> lo) & mk }
	case EBit:
		af, w := exprFn(e.A), int64(e.A.W)
		bit := bitIndexFn(e.Idx)
		return func(x *Exec) uint64 {
			v := af(x)
			if i := bit(x); i >= 0 && i < w {
				return (v >> uint(i)) & 1
			}
			return 0
		}
	case EUn:
		af := exprFn(e.A)
		mk := kernel.Mask(e.W)
		switch e.Op {
		case "-":
			return func(x *Exec) uint64 { return (-af(x)) & mk }
		case "!":
			return func(x *Exec) uint64 { return kernel.Bool(af(x) == 0) }
		case "~":
			return func(x *Exec) uint64 { return (^af(x)) & mk }
		}
	case EBin:
		return binFn(e)
	case ECond:
		cf, tf, ff := exprFn(e.A), exprFn(e.B), exprFn(e.C)
		return func(x *Exec) uint64 {
			if cf(x) != 0 {
				return tf(x)
			}
			return ff(x)
		}
	case EAbs:
		af, w := exprFn(e.A), e.A.W
		return func(x *Exec) uint64 { return kernel.Abs(af(x), w) }
	case EMinMax:
		af, bf, w := exprFn(e.A), exprFn(e.B), e.A.W
		switch {
		case e.A.Signed && e.Op == "min":
			return func(x *Exec) uint64 { return kernel.MinS(af(x), bf(x), w) }
		case e.A.Signed:
			return func(x *Exec) uint64 { return kernel.MaxS(af(x), bf(x), w) }
		case e.Op == "min":
			return func(x *Exec) uint64 { return kernel.MinU(af(x), bf(x)) }
		default:
			return func(x *Exec) uint64 { return kernel.MaxU(af(x), bf(x)) }
		}
	case ESat:
		af, w, to := exprFn(e.A), e.A.W, e.N
		return func(x *Exec) uint64 { return kernel.SatS(af(x), w, to) }
	case ESext:
		af, n := exprFn(e.A), e.N
		return func(x *Exec) uint64 { return kernel.SignExt(af(x), n) }
	case EZext:
		af, mk := exprFn(e.A), kernel.Mask(e.N)
		return func(x *Exec) uint64 { return af(x) & mk }
	case EAddSat:
		af, bf := exprFn(e.A), exprFn(e.B)
		aw, bw := e.A.W, e.B.W
		sub := e.Op == "-"
		return func(x *Exec) uint64 { return kernel.AddSat(af(x), aw, bf(x), bw, sub) }
	}
	panic("behavior: unknown IR expression kind")
}

func binFn(e *Expr) efn {
	l, r := e.A, e.B
	w := max(l.W, r.W)
	lf, rf := exprFn(l), exprFn(r)
	switch e.Op {
	case "+", "-", "*", "&", "|", "^", "==", "!=", "/", "%":
		af := widenFn(l, lf, w)
		bf := widenFn(r, rf, w)
		mk := kernel.Mask(w)
		signed := l.Signed || r.Signed
		switch e.Op {
		case "+":
			return func(x *Exec) uint64 { return (af(x) + bf(x)) & mk }
		case "-":
			return func(x *Exec) uint64 { return (af(x) - bf(x)) & mk }
		case "*":
			return func(x *Exec) uint64 { return (af(x) * bf(x)) & mk }
		case "&":
			return func(x *Exec) uint64 { return af(x) & bf(x) }
		case "|":
			return func(x *Exec) uint64 { return af(x) | bf(x) }
		case "^":
			return func(x *Exec) uint64 { return af(x) ^ bf(x) }
		case "==":
			return func(x *Exec) uint64 { return kernel.Bool(af(x) == bf(x)) }
		case "!=":
			return func(x *Exec) uint64 { return kernel.Bool(af(x) != bf(x)) }
		case "/":
			if signed {
				return func(x *Exec) uint64 { return kernel.DivS(af(x), bf(x), w) }
			}
			return func(x *Exec) uint64 { return kernel.DivU(af(x), bf(x), w) }
		default: // "%"
			if signed {
				return func(x *Exec) uint64 { return kernel.RemS(af(x), bf(x), w) }
			}
			return func(x *Exec) uint64 { return kernel.RemU(af(x), bf(x), w) }
		}
	case "<", "<=", ">", ">=":
		if l.Signed || r.Signed {
			ai := cmpIntFn(l, lf, w)
			bi := cmpIntFn(r, rf, w)
			switch e.Op {
			case "<":
				return func(x *Exec) uint64 { return kernel.Bool(ai(x) < bi(x)) }
			case "<=":
				return func(x *Exec) uint64 { return kernel.Bool(ai(x) <= bi(x)) }
			case ">":
				return func(x *Exec) uint64 { return kernel.Bool(ai(x) > bi(x)) }
			default:
				return func(x *Exec) uint64 { return kernel.Bool(ai(x) >= bi(x)) }
			}
		}
		// Unsigned compares are payload compares at the operands' own
		// widths (CmpU does not widen).
		switch e.Op {
		case "<":
			return func(x *Exec) uint64 { return kernel.Bool(lf(x) < rf(x)) }
		case "<=":
			return func(x *Exec) uint64 { return kernel.Bool(lf(x) <= rf(x)) }
		case ">":
			return func(x *Exec) uint64 { return kernel.Bool(lf(x) > rf(x)) }
		default:
			return func(x *Exec) uint64 { return kernel.Bool(lf(x) >= rf(x)) }
		}
	case "<<":
		lw := l.W
		return func(x *Exec) uint64 { return kernel.Shl(lf(x), rf(x)&63, lw) }
	case ">>":
		lw := l.W
		if l.Signed {
			return func(x *Exec) uint64 { return kernel.ShrS(lf(x), rf(x)&63, lw) }
		}
		return func(x *Exec) uint64 { return kernel.ShrU(lf(x), rf(x)&63, lw) }
	case "&&":
		return func(x *Exec) uint64 { return kernel.Bool(lf(x) != 0 && rf(x) != 0) }
	case "||":
		return func(x *Exec) uint64 { return kernel.Bool(lf(x) != 0 || rf(x) != 0) }
	}
	panic("behavior: unknown binary operator " + e.Op)
}
