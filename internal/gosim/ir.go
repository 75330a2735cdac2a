package gosim

import (
	"fmt"

	"golisa/internal/ast"
	"golisa/internal/behavior"
	"golisa/internal/bitvec"
	"golisa/internal/bitvec/kernel"
	"golisa/internal/model"
)

// The IR is a small typed expression/statement tree distilled from the
// behavior AST of one bound instance. Every expression carries a static
// width (1..64) and signedness, computed by the exact widening rules of
// internal/behavior (see expr.go binop/unop/convert); payloads are
// always zero-extended uint64s, like bitvec.Value's. Both backends — the
// threaded-code closure interpreter (interp.go) and the Go source emitter
// (emit.go) — walk this one tree and evaluate every operator through the
// one semantic kernel (internal/bitvec/kernel) that bitvec.Value also
// wraps, so the four engines share one definition of the arithmetic;
// tests pin the backends against the behavior engines.

type ekind int

const (
	eConst  ekind = iota // k at width w
	eLocal               // local variable read
	eScalar              // non-alias scalar resource read (committed value)
	eElem                // memory element read; out of range reads 0
	eSlice               // bits hi..lo of a (alias reads, bits() builtin)
	eUn                  // op one of - ! ~ (+ is folded away)
	eBin                 // op one of + - * / % & | ^ << >> == != < <= > >= && ||
	eCond                // a ? b : c
	eAbs                 // abs(a)
	eMinMax              // op "min" or "max"; operands share width and signedness
	eSat                 // saturate(a, n), n const in [1,64]
	eSext                // sign_extend(a, n) -> 64-bit signed
	eZext                // zero_extend(a, n) -> 64-bit unsigned
	eAddSat              // op "+" or "-": addsat/subsat(a, b)
)

type expr struct {
	kind   ekind
	w      int  // static result width, 1..64
	signed bool // static signedness (drives widening/compares up the tree)

	op      string
	a, b, c *expr
	k       uint64 // eConst payload (zero-extended at w)
	n       int    // eSat/eSext/eZext parameter; eSlice lo
	hi      int    // eSlice hi
	res     *model.Resource
	local   *localVar
	idx     *expr // eElem address
}

type lkind int

const (
	lLocal  lkind = iota
	lScalar       // non-alias scalar write (latch-aware)
	lSlice        // read-modify-write of bits hi..lo of a non-alias scalar (aliases)
	lElem         // memory element write; out of range drops silently
)

type lval struct {
	kind   lkind
	local  *localVar
	res    *model.Resource // lScalar/lElem target, lSlice base
	hi     int
	lo     int
	signed bool  // lSlice re-reads: alias signedness (bit-range reads are unsigned)
	idx    *expr // lElem address
	// rhsW is the static width of the assigned expression, needed by
	// lLocal stores (signed locals sign-extend from the VALUE's width,
	// mirroring behavior's convert()).
	rhsW int
}

type skind int

const (
	sAssign skind = iota
	sIf
	sPrint
	sDispatch // decode() call on the coding root: schedule the fetched word
)

type stmt struct {
	kind      skind
	lhs       *lval
	rhs       *expr
	cond      *expr
	then, els []*stmt
	parts     []printPart
}

type printPart struct {
	str    string
	isStr  bool
	x      *expr
	signed bool
}

type localVar struct {
	idx    int
	w      int
	signed bool
}

// build is the per-Compile shared state: the model, the program memory,
// the dispatchable coding root, and the write set collected for the
// dispatch-safety analysis.
type build struct {
	m       *model.Model
	progMem *model.Resource
	root    *model.Operation
	writes  []writeRec
	maxLoc  int

	// dispatchSites counts compiled sDispatch statements. The schedule
	// ring reproduces the pipeline's packet ordering exactly only when at
	// most one packet per cycle receives staged work, so more than one
	// dispatch site falls back to the interpretive engine.
	dispatchSites int
}

// writeRec logs one compiled assignment for the dispatch-safety analysis.
type writeRec struct {
	lv  *lval
	rhs *expr
}

// fctx compiles one handler (one behavior invocation). Inlined operation
// calls get a fresh scope stack but keep numbering locals in the same
// per-handler pool (behaviors never interleave, so the pool is reusable
// across handlers).
type fctx struct {
	b           *build
	inst        *model.Instance // nil outside an instance context
	scopes      []map[string]*localVar
	nloc        *int
	canDispatch bool
	stack       []*model.Operation
}

func unsup(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrUnsupported, fmt.Sprintf(format, args...))
}

func (f *fctx) push() { f.scopes = append(f.scopes, nil) }
func (f *fctx) pop()  { f.scopes = f.scopes[:len(f.scopes)-1] }
func (f *fctx) lookup(name string) *localVar {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if l, ok := f.scopes[i][name]; ok {
			return l
		}
	}
	return nil
}

func (f *fctx) declare(name string, w int, signed bool) (*localVar, error) {
	top := f.scopes[len(f.scopes)-1]
	if top == nil {
		top = map[string]*localVar{}
		f.scopes[len(f.scopes)-1] = top
	}
	if _, dup := top[name]; dup {
		return nil, fmt.Errorf("redeclared local %s", name)
	}
	l := &localVar{idx: *f.nloc, w: w, signed: signed}
	*f.nloc++
	if *f.nloc > f.b.maxLoc {
		f.b.maxLoc = *f.nloc
	}
	top[name] = l
	return l, nil
}

// childCtx derives the compile context for a bound child instance's
// EXPRESSION section: child labels/bindings, no locals.
func (f *fctx) childCtx(in *model.Instance) *fctx {
	return &fctx{b: f.b, inst: in, nloc: f.nloc, stack: f.stack}
}

// ---- statements ----------------------------------------------------------

func (f *fctx) compileBlock(blk *ast.Block, out *[]*stmt) error {
	f.push()
	defer f.pop()
	for _, s := range blk.Stmts {
		if err := f.compileStmt(s, out); err != nil {
			return err
		}
	}
	return nil
}

func (f *fctx) compileStmt(s ast.Stmt, out *[]*stmt) error {
	switch st := s.(type) {
	case *ast.Block:
		return f.compileBlock(st, out)
	case *ast.EmptyStmt:
		return nil
	case *ast.DeclStmt:
		var init *expr
		if st.Init != nil {
			e, err := f.compileExpr(st.Init)
			if err != nil {
				return err
			}
			init = e
		} else {
			init = &expr{kind: eConst, w: clampW(st.Type.Width), signed: true}
		}
		l, err := f.declare(st.Name, clampW(st.Type.Width), st.Type.Signed())
		if err != nil {
			return err
		}
		lv := &lval{kind: lLocal, local: l, rhsW: init.w}
		f.b.writes = append(f.b.writes, writeRec{lv, init})
		*out = append(*out, &stmt{kind: sAssign, lhs: lv, rhs: init})
		return nil
	case *ast.ExprStmt:
		return f.compileExprStmt(st.X, out)
	case *ast.AssignStmt:
		lv, err := f.compileLval(st.LHS)
		if err != nil {
			return err
		}
		rhs, err := f.compileExpr(st.RHS)
		if err != nil {
			return err
		}
		if st.Op != "=" {
			cur, err := f.lvalAsExpr(lv)
			if err != nil {
				return err
			}
			rhs, err = makeBin(st.Op[:len(st.Op)-1], cur, rhs)
			if err != nil {
				return err
			}
		}
		lv.rhsW = rhs.w
		f.b.writes = append(f.b.writes, writeRec{lv, rhs})
		*out = append(*out, &stmt{kind: sAssign, lhs: lv, rhs: rhs})
		return nil
	case *ast.IncDecStmt:
		lv, err := f.compileLval(st.X)
		if err != nil {
			return err
		}
		cur, err := f.lvalAsExpr(lv)
		if err != nil {
			return err
		}
		op := "+"
		if st.Op == "--" {
			op = "-"
		}
		// bitvec.Add(cur, New(1, cur.Width())): both operands at cur's
		// width, so widening is the identity and binop matches exactly.
		one := &expr{kind: eConst, k: 1, w: cur.w}
		rhs, err := makeBin(op, cur, one)
		if err != nil {
			return err
		}
		lv.rhsW = rhs.w
		f.b.writes = append(f.b.writes, writeRec{lv, rhs})
		*out = append(*out, &stmt{kind: sAssign, lhs: lv, rhs: rhs})
		return nil
	case *ast.IfStmt:
		cond, err := f.compileExpr(st.Cond)
		if err != nil {
			return err
		}
		node := &stmt{kind: sIf, cond: cond}
		if st.Then != nil {
			if err := f.compileStmt(st.Then, &node.then); err != nil {
				return err
			}
		}
		if st.Else != nil {
			if err := f.compileStmt(st.Else, &node.els); err != nil {
				return err
			}
		}
		*out = append(*out, node)
		return nil
	case *ast.WhileStmt, *ast.DoWhileStmt, *ast.ForStmt, *ast.SwitchStmt,
		*ast.BreakStmt, *ast.ContinueStmt, *ast.ReturnStmt:
		return unsup("control flow %T", s)
	default:
		return unsup("statement %T", s)
	}
}

// compileExprStmt handles expression statements: operation/binding calls
// (inlined, or a dispatch for the coding root), print(), and plain
// expressions evaluated for (non-existent) effect.
func (f *fctx) compileExprStmt(e ast.Expr, out *[]*stmt) error {
	if id, ok := e.(*ast.Ident); ok {
		if f.lookup(id.Name) == nil && f.inst != nil {
			if _, isLabel := f.inst.Labels[id.Name]; !isLabel {
				if child, ok := f.inst.Bindings[id.Name]; ok {
					return f.inlineInstance(child, out)
				}
			}
		}
		if f.lookup(id.Name) == nil {
			if op, ok := f.b.m.Ops[id.Name]; ok {
				return f.callOp(op, out)
			}
		}
	}
	if c, ok := e.(*ast.CallExpr); ok {
		return f.compileCallStmt(c, out)
	}
	// Pure expression: compile to validate, then drop (no side effects in
	// the supported class).
	_, err := f.compileExpr(e)
	return err
}

func (f *fctx) compileCallStmt(c *ast.CallExpr, out *[]*stmt) error {
	if c.Name == "print" {
		node := &stmt{kind: sPrint}
		for _, a := range c.Args {
			if s, ok := a.(*ast.StrLit); ok {
				node.parts = append(node.parts, printPart{str: s.Val, isStr: true})
				continue
			}
			x, err := f.compileExpr(a)
			if err != nil {
				return err
			}
			node.parts = append(node.parts, printPart{x: x, signed: x.signed})
		}
		*out = append(*out, node)
		return nil
	}
	if behavior.IsBuiltin(c.Name) {
		// A builtin in statement position has no effect; compile the
		// arguments for validation and drop the value.
		_, err := f.compileExpr(c)
		return err
	}
	if len(c.Args) != 0 {
		return unsup("call %s with arguments", c.Name)
	}
	if f.inst != nil {
		if child, ok := f.inst.Bindings[c.Name]; ok {
			return f.inlineInstance(child, out)
		}
	}
	if op, ok := f.b.m.Ops[c.Name]; ok {
		return f.callOp(op, out)
	}
	return unsup("call to %s (pipeline operations and unknown calls)", c.Name)
}

// callOp handles a behavior call to a named operation: the coding root
// becomes a dispatch point; plain helper operations are inlined.
func (f *fctx) callOp(op *model.Operation, out *[]*stmt) error {
	if op.IsCodingRoot {
		if f.b.root == nil {
			f.b.root = op
		}
		if op != f.b.root {
			return unsup("dispatch of a second coding root %s (plan targets %s)", op.Name, f.b.root.Name)
		}
		if !f.canDispatch {
			return unsup("dispatch from a handler past pipeline stage 0")
		}
		f.b.dispatchSites++
		if f.b.dispatchSites > 1 {
			return unsup("more than one dispatch site")
		}
		*out = append(*out, &stmt{kind: sDispatch})
		return nil
	}
	in := model.NewInstance(op)
	if err := in.ResolveVariant(); err != nil {
		return unsup("call %s: %v", op.Name, err)
	}
	return f.inlineInstance(in, out)
}

// inlineInstance splices a called instance's behavior into the caller,
// with a fresh scope stack (callee locals are invisible to the caller and
// vice versa) but the shared local pool.
func (f *fctx) inlineInstance(in *model.Instance, out *[]*stmt) error {
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return unsup("inline %s: %v", in.Op.Name, err)
		}
	}
	if in.Variant.Activation != nil {
		return unsup("called operation %s has an ACTIVATION section", in.Op.Name)
	}
	for _, caller := range f.stack {
		if caller == in.Op {
			return unsup("recursive behavior call to %s", in.Op.Name)
		}
	}
	if in.Variant.Behavior == nil {
		return nil
	}
	sub := &fctx{
		b: f.b, inst: in, nloc: f.nloc,
		canDispatch: f.canDispatch,
		stack:       append(f.stack, in.Op),
	}
	return sub.compileBlock(in.Variant.Behavior.Body, out)
}

// ---- lvalues -------------------------------------------------------------

func (f *fctx) compileLval(e ast.Expr) (*lval, error) {
	switch ex := e.(type) {
	case *ast.Ident:
		if l := f.lookup(ex.Name); l != nil {
			return &lval{kind: lLocal, local: l}, nil
		}
		if f.inst != nil {
			if _, ok := f.inst.Labels[ex.Name]; ok {
				return nil, unsup("label %s is not assignable", ex.Name)
			}
			if child, ok := f.inst.Bindings[ex.Name]; ok {
				return f.childCtx(child).instanceLval(child)
			}
		}
		if r := f.b.m.Resource(ex.Name); r != nil {
			return f.resourceLval(r)
		}
		return nil, unsup("unknown identifier %s", ex.Name)
	case *ast.IndexExpr:
		return f.indexLval(ex)
	case *ast.BitsExpr:
		base, err := f.compileLval(ex.X)
		if err != nil {
			return nil, err
		}
		hi, lo, err := f.constSlice(ex.Hi, ex.Lo)
		if err != nil {
			return nil, err
		}
		if base.kind != lScalar {
			return nil, unsup("bit-range assignment to a non-scalar lvalue")
		}
		return &lval{kind: lSlice, res: base.res, hi: hi, lo: lo}, nil
	default:
		return nil, unsup("assignment to %T", e)
	}
}

// resourceLval resolves a scalar resource (or a register alias) into an
// assignable location.
func (f *fctx) resourceLval(r *model.Resource) (*lval, error) {
	if r.IsMemory() {
		return nil, unsup("memory resource %s needs an index", r.Name)
	}
	if r.IsAlias {
		base := r.AliasOf
		if base == nil || base.IsAlias {
			return nil, unsup("alias %s of an alias", r.Name)
		}
		hi, lo := r.AliasHi, r.AliasLo
		if hi < lo {
			hi, lo = lo, hi
		}
		if lo < 0 || hi > 63 {
			return nil, unsup("alias %s range [%d..%d]", r.Name, hi, lo)
		}
		return &lval{kind: lSlice, res: base, hi: hi, lo: lo, signed: r.Signed}, nil
	}
	return &lval{kind: lScalar, res: r}, nil
}

// instanceLval resolves a bound child's EXPRESSION section as an lvalue
// (write-through operand references like Dest = ...).
func (f *fctx) instanceLval(in *model.Instance) (*lval, error) {
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return nil, unsup("operand %s: %v", in.Op.Name, err)
		}
	}
	if in.Variant.Expression == nil {
		return nil, unsup("operation %s has no EXPRESSION section", in.Op.Name)
	}
	return f.childCtx(in).compileLval(in.Variant.Expression.X)
}

func (f *fctx) indexLval(ex *ast.IndexExpr) (*lval, error) {
	if inner, ok := ex.X.(*ast.IndexExpr); ok {
		if rid, ok := inner.X.(*ast.Ident); ok {
			if r := f.b.m.Resource(rid.Name); r != nil && r.Banks > 0 {
				return nil, unsup("banked memory access %s", rid.Name)
			}
		}
		return nil, unsup("nested index expression")
	}
	rid, ok := ex.X.(*ast.Ident)
	if !ok {
		return nil, unsup("index of a non-resource expression")
	}
	if f.lookup(rid.Name) != nil {
		return nil, unsup("index of local %s", rid.Name)
	}
	if f.inst != nil {
		if _, ok := f.inst.Labels[rid.Name]; ok {
			return nil, unsup("index of label %s", rid.Name)
		}
		if _, ok := f.inst.Bindings[rid.Name]; ok {
			return nil, unsup("index of binding %s", rid.Name)
		}
	}
	r := f.b.m.Resource(rid.Name)
	if r == nil {
		return nil, unsup("unknown memory resource %s", rid.Name)
	}
	if r.Banks > 0 {
		return nil, unsup("banked memory %s", r.Name)
	}
	if !r.IsMemory() {
		return nil, unsup("scalar bit-select %s[i]", r.Name)
	}
	if r.Latch {
		return nil, unsup("latched memory %s", r.Name)
	}
	idx, err := f.compileExpr(ex.I)
	if err != nil {
		return nil, err
	}
	return &lval{kind: lElem, res: r, idx: idx}, nil
}

// lvalAsExpr re-reads an lvalue as its current value (compound assigns,
// ++/--), mirroring behavior's ref.get.
func (f *fctx) lvalAsExpr(lv *lval) (*expr, error) {
	switch lv.kind {
	case lLocal:
		return &expr{kind: eLocal, local: lv.local, w: lv.local.w, signed: lv.local.signed}, nil
	case lScalar:
		return &expr{kind: eScalar, res: lv.res, w: lv.res.Width, signed: lv.res.Signed}, nil
	case lSlice:
		// Alias reads report the alias resource's signedness; a plain
		// bit-range read is unsigned. Both slice the committed base.
		base := &expr{kind: eScalar, res: lv.res, w: lv.res.Width, signed: lv.res.Signed}
		return &expr{kind: eSlice, a: base, hi: lv.hi, n: lv.lo, w: sliceWidth(lv.hi, lv.lo), signed: lv.signed}, nil
	case lElem:
		// The index expression is evaluated twice (read then write); the
		// supported class has no side effects in expressions, so this
		// matches the interpreter's evaluate-once reference exactly.
		return &expr{kind: eElem, res: lv.res, idx: lv.idx, w: lv.res.Width, signed: lv.res.Signed}, nil
	}
	return nil, unsup("unreadable lvalue")
}

// ---- expressions ---------------------------------------------------------

func (f *fctx) compileExpr(e ast.Expr) (*expr, error) {
	switch ex := e.(type) {
	case *ast.NumLit:
		if ex.Val > 0x7fffffff {
			return &expr{kind: eConst, k: ex.Val, w: 64, signed: true}, nil
		}
		return &expr{kind: eConst, k: ex.Val, w: 32, signed: true}, nil
	case *ast.StrLit:
		return nil, unsup("string literal outside print()")
	case *ast.Ident:
		return f.compileIdent(ex)
	case *ast.IndexExpr:
		return f.compileIndexExpr(ex)
	case *ast.BitsExpr:
		// A bit-range rvalue resolves its base as an lvalue (the
		// interpreter rejects ranges over computed values).
		blv, err := f.compileLval(ex.X)
		if err != nil {
			return nil, err
		}
		base, err := f.lvalAsExpr(blv)
		if err != nil {
			return nil, err
		}
		hi, lo, err := f.constSlice(ex.Hi, ex.Lo)
		if err != nil {
			return nil, err
		}
		return &expr{kind: eSlice, a: base, hi: hi, n: lo, w: sliceWidth(hi, lo)}, nil
	case *ast.UnaryExpr:
		v, err := f.compileExpr(ex.X)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "-":
			return fold(&expr{kind: eUn, op: "-", a: v, w: v.w, signed: true}), nil
		case "+":
			return v, nil
		case "!":
			return fold(&expr{kind: eUn, op: "!", a: v, w: 1}), nil
		case "~":
			return fold(&expr{kind: eUn, op: "~", a: v, w: v.w, signed: v.signed}), nil
		}
		return nil, unsup("unary operator %s", ex.Op)
	case *ast.BinaryExpr:
		l, err := f.compileExpr(ex.L)
		if err != nil {
			return nil, err
		}
		r, err := f.compileExpr(ex.R)
		if err != nil {
			return nil, err
		}
		return makeBin(ex.Op, l, r)
	case *ast.CondExpr:
		c, err := f.compileExpr(ex.C)
		if err != nil {
			return nil, err
		}
		t, err := f.compileExpr(ex.T)
		if err != nil {
			return nil, err
		}
		fv, err := f.compileExpr(ex.F)
		if err != nil {
			return nil, err
		}
		if t.w != fv.w || t.signed != fv.signed {
			return nil, unsup("?: branches differ in width or signedness")
		}
		return fold(&expr{kind: eCond, a: c, b: t, c: fv, w: t.w, signed: t.signed}), nil
	case *ast.CallExpr:
		return f.compileCallExpr(ex)
	default:
		return nil, unsup("expression %T", e)
	}
}

func (f *fctx) compileIdent(id *ast.Ident) (*expr, error) {
	if l := f.lookup(id.Name); l != nil {
		return &expr{kind: eLocal, local: l, w: l.w, signed: l.signed}, nil
	}
	if f.inst != nil {
		if lv, ok := f.inst.Labels[id.Name]; ok {
			return &expr{kind: eConst, k: lv.Uint(), w: lv.Width()}, nil
		}
		if child, ok := f.inst.Bindings[id.Name]; ok {
			return f.childCtx(child).instanceExpr(child)
		}
	}
	if r := f.b.m.Resource(id.Name); r != nil {
		if r.IsMemory() {
			return nil, unsup("memory resource %s needs an index", r.Name)
		}
		if r.IsAlias {
			base := r.AliasOf
			if base == nil || base.IsAlias {
				return nil, unsup("alias %s of an alias", r.Name)
			}
			hi, lo := r.AliasHi, r.AliasLo
			if hi < lo {
				hi, lo = lo, hi
			}
			if lo < 0 || hi > 63 {
				return nil, unsup("alias %s range [%d..%d]", r.Name, hi, lo)
			}
			b := &expr{kind: eScalar, res: base, w: base.Width, signed: base.Signed}
			return &expr{kind: eSlice, a: b, hi: hi, n: lo, w: sliceWidth(hi, lo), signed: r.Signed}, nil
		}
		return &expr{kind: eScalar, res: r, w: r.Width, signed: r.Signed}, nil
	}
	return nil, unsup("unknown identifier %s", id.Name)
}

// instanceExpr evaluates a bound child's EXPRESSION section as an rvalue.
func (f *fctx) instanceExpr(in *model.Instance) (*expr, error) {
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return nil, unsup("operand %s: %v", in.Op.Name, err)
		}
	}
	if in.Variant.Expression == nil {
		return nil, unsup("operation %s has no EXPRESSION section", in.Op.Name)
	}
	return f.compileExpr(in.Variant.Expression.X)
}

func (f *fctx) compileIndexExpr(ex *ast.IndexExpr) (*expr, error) {
	lv, err := f.indexLval(ex)
	if err != nil {
		return nil, err
	}
	return &expr{kind: eElem, res: lv.res, idx: lv.idx, w: lv.res.Width, signed: lv.res.Signed}, nil
}

func (f *fctx) compileCallExpr(c *ast.CallExpr) (*expr, error) {
	need := func(n int) error {
		if len(c.Args) != n {
			return unsup("%s expects %d arguments, got %d", c.Name, n, len(c.Args))
		}
		return nil
	}
	arg := func(i int) (*expr, error) { return f.compileExpr(c.Args[i]) }
	switch c.Name {
	case "wait_states":
		if err := need(1); err != nil {
			return nil, err
		}
		id, ok := c.Args[0].(*ast.Ident)
		if !ok {
			return nil, unsup("wait_states expects a resource name")
		}
		r := f.b.m.Resource(id.Name)
		if r == nil {
			return nil, unsup("unknown resource %s", id.Name)
		}
		return &expr{kind: eConst, k: bitvec.New(uint64(r.Wait), 32).Uint(), w: 32}, nil
	case "abs":
		if err := need(1); err != nil {
			return nil, err
		}
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		return fold(&expr{kind: eAbs, a: a, w: a.w, signed: true}), nil
	case "min", "max":
		if err := need(2); err != nil {
			return nil, err
		}
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		b, err := arg(1)
		if err != nil {
			return nil, err
		}
		if a.w != b.w || a.signed != b.signed {
			return nil, unsup("%s operands differ in width or signedness", c.Name)
		}
		return fold(&expr{kind: eMinMax, op: c.Name, a: a, b: b, w: a.w, signed: a.signed}), nil
	case "saturate":
		if err := need(2); err != nil {
			return nil, err
		}
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		to, err := f.constIntArg(c.Args[1])
		if err != nil {
			return nil, err
		}
		if to < 1 {
			to = 1
		}
		if to > 64 {
			to = 64
		}
		return fold(&expr{kind: eSat, a: a, n: int(to), w: a.w, signed: true}), nil
	case "sign_extend", "zero_extend":
		if err := need(2); err != nil {
			return nil, err
		}
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		from, err := f.constIntArg(c.Args[1])
		if err != nil {
			return nil, err
		}
		if from < 1 {
			from = 1
		}
		if from > 64 {
			from = 64
		}
		k, signed := eZext, false
		if c.Name == "sign_extend" {
			k, signed = eSext, true
		}
		return fold(&expr{kind: k, a: a, n: int(from), w: 64, signed: signed}), nil
	case "addsat", "subsat":
		if err := need(2); err != nil {
			return nil, err
		}
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		b, err := arg(1)
		if err != nil {
			return nil, err
		}
		op := "+"
		if c.Name == "subsat" {
			op = "-"
		}
		w := a.w
		if b.w > w {
			w = b.w
		}
		return fold(&expr{kind: eAddSat, op: op, a: a, b: b, w: w, signed: true}), nil
	case "bits":
		if err := need(3); err != nil {
			return nil, err
		}
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		hi, lo, err := f.constSlice(c.Args[1], c.Args[2])
		if err != nil {
			return nil, err
		}
		return fold(&expr{kind: eSlice, a: a, hi: hi, n: lo, w: sliceWidth(hi, lo)}), nil
	case "print":
		return nil, unsup("print() inside an expression")
	}
	return nil, unsup("call to %s inside an expression", c.Name)
}

// constIntArg folds an argument that the builtins read as a compile-time
// integer (saturation widths, extension widths, bit ranges).
func (f *fctx) constIntArg(e ast.Expr) (int64, error) {
	x, err := f.compileExpr(e)
	if err != nil {
		return 0, err
	}
	x = fold(x)
	if x.kind != eConst {
		return 0, unsup("argument must be a constant")
	}
	return int64(kernel.SignExt(x.k, x.w)), nil
}

// constSlice folds a hi/lo bit-range pair, normalizing hi >= lo exactly
// like bitvec.Slice, and bounding both into [0,63].
func (f *fctx) constSlice(hiE, loE ast.Expr) (hi, lo int, err error) {
	h, err := f.constIntArg(hiE)
	if err != nil {
		return 0, 0, err
	}
	l, err := f.constIntArg(loE)
	if err != nil {
		return 0, 0, err
	}
	if h < l {
		h, l = l, h
	}
	if l < 0 || h > 63 {
		return 0, 0, unsup("bit range [%d..%d] out of 0..63", h, l)
	}
	return int(h), int(l), nil
}

// makeBin builds a binary node with the exact static width/signedness
// rules of behavior.binop.
func makeBin(op string, l, r *expr) (*expr, error) {
	signed := l.signed || r.signed
	wmax := l.w
	if r.w > wmax {
		wmax = r.w
	}
	e := &expr{kind: eBin, op: op, a: l, b: r}
	switch op {
	case "+", "-", "*", "/", "%", "&", "|", "^":
		e.w, e.signed = wmax, signed
	case "<<", ">>":
		e.w, e.signed = l.w, l.signed
	case "==", "!=", "<", "<=", ">", ">=", "&&", "||":
		e.w, e.signed = 1, false
	default:
		return nil, unsup("binary operator %s", op)
	}
	return fold(e), nil
}

func sliceWidth(hi, lo int) int { return clampW(hi - lo + 1) }

func clampW(w int) int {
	if w < 1 {
		return 1
	}
	if w > 64 {
		return 64
	}
	return w
}

// fold collapses a node whose operands are all constants by evaluating it
// through the closure backend on a nil machine (constant subtrees never
// touch machine state). Labels resolve to constants, so operand address
// arithmetic like A[index] or data_mem[Base+offset] folds to a constant
// index at generation time.
func fold(e *expr) *expr {
	if e.kind == eConst || !isConstTree(e) {
		return e
	}
	v := compileExprFn(e)(nil)
	return &expr{kind: eConst, k: v, w: e.w, signed: e.signed}
}

func isConstTree(e *expr) bool {
	if e == nil {
		return true
	}
	switch e.kind {
	case eConst:
		return true
	case eLocal, eScalar, eElem:
		return false
	}
	return isConstTree(e.a) && isConstTree(e.b) && isConstTree(e.c) && isConstTree(e.idx)
}
