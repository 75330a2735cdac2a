package behavior

import (
	"errors"
	"fmt"
	"strings"

	"golisa/internal/ast"
	"golisa/internal/bitvec/kernel"
	"golisa/internal/model"
)

// The IR is a small typed statement/expression tree lowered from the
// behavior AST of one bound instance. Every expression carries a static
// width (1..64) and signedness computed by the interpreter's widening
// rules (expr.go binop/unop/convert); payloads are always zero-extended
// uint64s, like bitvec.Value's. Names are resolved at lowering time:
// locals become slots of a per-body pool, decoded label fields become
// constants, operand bindings become their EXPRESSION sections lowered
// in the child's context, and resources become slots.
//
// Two backends execute the one tree: the threaded-code compiler in
// threaded.go, which sim's compiled mode runs, and gosim's Go source
// emitter. Both evaluate every operator
// through the semantic kernel (internal/bitvec/kernel) that bitvec.Value
// wraps, so all engines share one definition of the arithmetic.
//
// Values whose type depends on run-time data — a ?: or min/max whose
// operands differ in width or signedness — are lowered by pushing their
// consumer into both branches until the types agree (see spread), or,
// where the consumer only reads the payload, by selecting the payload
// (see settle). The few constructs whose types cannot be made static at
// all (bit ranges with run-time bounds, operation calls inside
// expressions) fail lowering with ErrNotLowered; sim's compiled mode runs
// those behaviors on the AST interpreter, and gosim refuses them.

// ErrNotLowered marks a behavior the IR cannot express with static types.
var ErrNotLowered = errors.New("behavior construct outside the typed IR")

func notLowered(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrNotLowered, fmt.Sprintf(format, args...))
}

// ExprKind selects an IR expression node.
type ExprKind uint8

// Expression kinds.
const (
	EConst  ExprKind = iota // K at width W
	ELocal                  // local variable read
	EScalar                 // non-alias scalar resource read (committed value)
	EElem                   // memory element Idx; out of range reads 0
	EBank                   // banked memory element Bank, Idx; out of range reads 0
	ESlice                  // bits Hi..N of A
	EBit                    // bit Idx of A; out of range reads 0
	EUn                     // Op one of - ! ~
	EBin                    // Op one of + - * / % & | ^ << >> == != < <= > >= && ||
	ECond                   // A ? B : C
	EAbs                    // abs(A)
	EMinMax                 // Op "min" or "max"; operands share width and signedness
	ESat                    // saturate(A, N), N in [1,64]
	ESext                   // sign_extend(A, N) -> 64-bit signed
	EZext                   // zero_extend(A, N) -> 64-bit unsigned
	EAddSat                 // Op "+" or "-": addsat/subsat(A, B)
)

// Expr is one typed IR expression. Expressions have no side effects.
type Expr struct {
	Kind   ExprKind
	Signed bool // static signedness (drives widening and compares)
	// dyn marks an ECond whose branches keep their own types; W and
	// Signed are placeholders until settle or spread resolves it.
	dyn bool
	W   int // static result width, 1..64

	Op      string
	A, B, C *Expr
	K       uint64 // EConst payload, zero-extended at W
	N       int    // ESat/ESext/EZext parameter; ESlice low bit
	Hi      int    // ESlice high bit
	Res     *model.Resource
	Local   *Local
	Idx     *Expr // EElem/EBank address, EBit bit index
	Bank    *Expr // EBank bank
}

// LValKind selects an IR assignment target.
type LValKind uint8

// Assignment target kinds.
const (
	LLocal  LValKind = iota
	LScalar          // non-alias scalar resource (latch-aware)
	LElem            // memory element Idx; out of range writes drop
	LBank            // banked memory element Bank, Idx; out of range writes drop
	LSlice           // bits Hi..Lo of Base, read-modify-write
	LBit             // bit Idx of Base, read-modify-write
)

// LVal is one IR assignment target.
type LVal struct {
	Kind   LValKind
	Signed bool // LSlice: signedness of re-reads (an alias resource's)
	Local  *Local
	Res    *model.Resource
	Idx    *Expr
	Bank   *Expr
	Base   *LVal
	Hi, Lo int
}

// StmtKind selects an IR statement.
type StmtKind uint8

// Statement kinds.
const (
	SAssign   StmtKind = iota // LHS = RHS
	SIf                       // if Cond { Then } else { Else }
	SPrint                    // print(Parts)
	SCall                     // call Inst (or Op) through the execution context
	SPipe                     // pipeline operation PipeOp on Pipe (Stage -1: whole pipe)
	SLoop                     // loop: Cond (nil: forever) before Then, or after it when Do; Post after each iteration
	SSwitch                   // switch Cond { Cases }
	SBreak                    // break
	SContinue                 // continue
	SReturn                   // return
)

var stmtNames = [...]string{"assignment", "if", "print", "call", "pipeline operation", "loop", "switch", "break", "continue", "return"}

func (k StmtKind) String() string { return stmtNames[k] }

// Stmt is one IR statement.
type Stmt struct {
	Kind StmtKind
	LHS  *LVal
	RHS  *Expr
	Cond *Expr

	Then, Else, Post []*Stmt
	Do               bool
	Cases            []Case
	Parts            []PrintPart

	Inst   *model.Instance
	Op     *model.Operation
	Pipe   *model.Pipeline
	Stage  int
	PipeOp string

	// Guard is the source condition of an if or the tag of a switch,
	// pushed on the hazard guard stack around the chosen branch while an
	// observer is attached; nil for ifs the lowering introduced itself.
	Guard ast.Expr
}

// Case is one arm of an SSwitch.
type Case struct {
	Vals    []*Expr
	Default bool
	Body    []*Stmt
}

// PrintPart is one argument of print(): a string literal or a value
// rendered by its signedness.
type PrintPart struct {
	Str   string
	IsStr bool
	X     *Expr
}

// Local is one slot of a body's local-variable pool.
type Local struct {
	Idx    int
	W      int
	Signed bool
}

// Lowering translates the behaviors of one model into IR.
type Lowering struct {
	M *model.Model
	// Inline selects whole-program lowering: calls of bound instances and
	// of operations other than coding roots are spliced into the caller,
	// so only coding-root calls remain as SCall statements (gosim).
	// Otherwise every call is an SCall executed through the Context, the
	// simulator's full execute path.
	Inline bool
	// MaxLocals is the largest local pool of any body lowered so far.
	MaxLocals int
}

// Body lowers the BEHAVIOR section of in's resolved variant and returns
// the statements plus the size of their local pool. A variant without
// behavior lowers to no statements.
func (l *Lowering) Body(in *model.Instance) ([]*Stmt, int, error) {
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return nil, 0, err
		}
	}
	if in.Variant.Behavior == nil {
		return nil, 0, nil
	}
	nloc := 0
	f := fctx{l: l, inst: in, nloc: &nloc}
	if l.Inline {
		f.stack = []*model.Operation{in.Op}
	}
	var out []*Stmt
	if err := f.lowerBlock(in.Variant.Behavior.Body, &out); err != nil {
		return nil, 0, err
	}
	return out, nloc, nil
}

// Expr lowers an expression in in's context without locals (activation
// conditions and switch tags). Its value is read as a payload only, so a
// run-time-typed result is settled.
func (l *Lowering) Expr(in *model.Instance, e ast.Expr) (*Expr, error) {
	nloc := 0
	f := fctx{l: l, inst: in, nloc: &nloc}
	x, err := f.lowerExpr(e)
	if err != nil {
		return nil, err
	}
	return settle(x), nil
}

// fctx lowers one body. Inlined calls get a fresh scope stack but keep
// numbering locals in the same pool.
type fctx struct {
	l      *Lowering
	inst   *model.Instance
	scopes []map[string]*Local
	nloc   *int
	stack  []*model.Operation // Inline: the callers, for the recursion check
}

func (f *fctx) push() { f.scopes = append(f.scopes, nil) }
func (f *fctx) pop()  { f.scopes = f.scopes[:len(f.scopes)-1] }

func (f *fctx) lookup(name string) *Local {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if l, ok := f.scopes[i][name]; ok {
			return l
		}
	}
	return nil
}

func (f *fctx) declare(name string, t ast.TypeSpec) (*Local, error) {
	top := f.scopes[len(f.scopes)-1]
	if top == nil {
		top = map[string]*Local{}
		f.scopes[len(f.scopes)-1] = top
	}
	if _, dup := top[name]; dup {
		return nil, fmt.Errorf("redeclared local %s", name)
	}
	l := &Local{Idx: *f.nloc, W: clampW(t.Width), Signed: t.Signed()}
	*f.nloc++
	if *f.nloc > f.l.MaxLocals {
		f.l.MaxLocals = *f.nloc
	}
	top[name] = l
	return l, nil
}

// childCtx is the context of a bound child's EXPRESSION section: the
// child's labels and bindings, no locals.
func (f *fctx) childCtx(in *model.Instance) (fctx, error) {
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return fctx{}, err
		}
	}
	if in.Variant.Expression == nil {
		return fctx{}, fmt.Errorf("operation %s has no EXPRESSION section", in.Op.Name)
	}
	return fctx{l: f.l, inst: in, nloc: f.nloc, stack: f.stack}, nil
}

// ---- statements ----------------------------------------------------------

func (f *fctx) lowerBlock(blk *ast.Block, out *[]*Stmt) error {
	f.push()
	defer f.pop()
	return f.lowerStmts(blk.Stmts, out)
}

func (f *fctx) lowerStmts(list []ast.Stmt, out *[]*Stmt) error {
	for _, s := range list {
		if err := f.lowerStmt(s, out); err != nil {
			return err
		}
	}
	return nil
}

func (f *fctx) lowerStmt(s ast.Stmt, out *[]*Stmt) error {
	switch st := s.(type) {
	case *ast.Block:
		return f.lowerBlock(st, out)
	case *ast.EmptyStmt:
		return nil
	case *ast.DeclStmt:
		init := &Expr{Kind: EConst, W: clampW(st.Type.Width), Signed: true}
		if st.Init != nil {
			e, err := f.lowerExpr(st.Init)
			if err != nil {
				return err
			}
			init = e
		}
		l, err := f.declare(st.Name, st.Type)
		if err != nil {
			return err
		}
		return assign(&LVal{Kind: LLocal, Local: l}, init, out)
	case *ast.ExprStmt:
		return f.lowerExprStmt(st.X, out)
	case *ast.AssignStmt:
		lv, err := f.lowerLval(st.LHS)
		if err != nil {
			return err
		}
		rhs, err := f.lowerExpr(st.RHS)
		if err != nil {
			return err
		}
		if st.Op != "=" {
			if rhs, err = makeBin(st.Op[:len(st.Op)-1], load(lv), rhs); err != nil {
				return err
			}
		}
		return assign(lv, rhs, out)
	case *ast.IncDecStmt:
		lv, err := f.lowerLval(st.X)
		if err != nil {
			return err
		}
		op := "+"
		if st.Op == "--" {
			op = "-"
		}
		// bitvec.Add(cur, New(1, cur.Width())): both operands at cur's
		// width, so widening is the identity and binop matches exactly.
		cur := load(lv)
		rhs, err := makeBin(op, cur, &Expr{Kind: EConst, K: 1, W: cur.W})
		if err != nil {
			return err
		}
		return assign(lv, rhs, out)
	case *ast.IfStmt:
		cond, err := f.lowerExpr(st.Cond)
		if err != nil {
			return err
		}
		node := &Stmt{Kind: SIf, Cond: settle(cond), Guard: st.Cond}
		if err := f.lowerStmt(st.Then, &node.Then); err != nil {
			return err
		}
		if st.Else != nil {
			if err := f.lowerStmt(st.Else, &node.Else); err != nil {
				return err
			}
		}
		*out = append(*out, node)
		return nil
	case *ast.WhileStmt:
		return f.lowerLoop(st.Cond, st.Body, nil, false, out)
	case *ast.DoWhileStmt:
		return f.lowerLoop(st.Cond, st.Body, nil, true, out)
	case *ast.ForStmt:
		f.push()
		defer f.pop()
		if st.Init != nil {
			if err := f.lowerStmt(st.Init, out); err != nil {
				return err
			}
		}
		return f.lowerLoop(st.Cond, st.Body, st.Post, false, out)
	case *ast.SwitchStmt:
		return f.lowerSwitch(st, out)
	case *ast.BreakStmt:
		*out = append(*out, &Stmt{Kind: SBreak})
		return nil
	case *ast.ContinueStmt:
		*out = append(*out, &Stmt{Kind: SContinue})
		return nil
	case *ast.ReturnStmt:
		if st.X != nil {
			// Expressions have no effects: lower for validation only.
			if _, err := f.lowerExpr(st.X); err != nil {
				return err
			}
		}
		*out = append(*out, &Stmt{Kind: SReturn})
		return nil
	default:
		return fmt.Errorf("unhandled statement %T", s)
	}
}

func (f *fctx) lowerLoop(cond ast.Expr, body, post ast.Stmt, do bool, out *[]*Stmt) error {
	node := &Stmt{Kind: SLoop, Do: do}
	if cond != nil {
		c, err := f.lowerExpr(cond)
		if err != nil {
			return err
		}
		node.Cond = settle(c)
	}
	if err := f.lowerStmt(body, &node.Then); err != nil {
		return err
	}
	if post != nil {
		if err := f.lowerStmt(post, &node.Post); err != nil {
			return err
		}
	}
	*out = append(*out, node)
	return nil
}

func (f *fctx) lowerSwitch(st *ast.SwitchStmt, out *[]*Stmt) error {
	tag, err := f.lowerExpr(st.Tag)
	if err != nil {
		return err
	}
	node := &Stmt{Kind: SSwitch, Cond: settle(tag), Guard: st.Tag}
	for i := range st.Cases {
		sc := &st.Cases[i]
		c := Case{Default: sc.Default}
		for _, v := range sc.Vals {
			x, err := f.lowerExpr(v)
			if err != nil {
				return err
			}
			c.Vals = append(c.Vals, settle(x))
		}
		f.push()
		err := f.lowerStmts(sc.Stmts, &c.Body)
		f.pop()
		if err != nil {
			return err
		}
		node.Cases = append(node.Cases, c)
	}
	*out = append(*out, node)
	return nil
}

// assign appends lv = rhs. Resource targets store the payload; a local
// store sign-extends from the value's own width, so a run-time-typed
// value becomes an if over its branches.
func assign(lv *LVal, rhs *Expr, out *[]*Stmt) error {
	if rhs.dyn && lv.Kind == LLocal {
		node := &Stmt{Kind: SIf, Cond: settle(rhs.A)}
		if err := assign(lv, rhs.B, &node.Then); err != nil {
			return err
		}
		if err := assign(lv, rhs.C, &node.Else); err != nil {
			return err
		}
		*out = append(*out, node)
		return nil
	}
	*out = append(*out, &Stmt{Kind: SAssign, LHS: lv, RHS: settle(rhs)})
	return nil
}

// lowerExprStmt handles expression statements: operation and binding
// calls, pipeline operations, print(), and plain expressions (which have
// no effect and are lowered for validation only).
func (f *fctx) lowerExprStmt(e ast.Expr, out *[]*Stmt) error {
	if id, ok := e.(*ast.Ident); ok && f.lookup(id.Name) == nil {
		if _, isLabel := f.inst.Labels[id.Name]; !isLabel {
			if child, ok := f.inst.Bindings[id.Name]; ok {
				return f.call(child, nil, out)
			}
			if op, ok := f.l.M.Ops[id.Name]; ok {
				return f.call(nil, op, out)
			}
		}
	}
	c, ok := e.(*ast.CallExpr)
	if !ok {
		_, err := f.lowerExpr(e)
		return err
	}
	switch {
	case strings.Contains(c.Name, "."):
		p, stage, op, err := resolvePipeCall(f.l.M, c)
		if err != nil {
			return err
		}
		*out = append(*out, &Stmt{Kind: SPipe, Pipe: p, Stage: stage, PipeOp: op})
		return nil
	case c.Name == "print":
		return f.lowerPrint(c, out)
	case IsBuiltin(c.Name):
		_, err := f.lowerExpr(c)
		return err
	}
	child, isChild := f.inst.Bindings[c.Name]
	op, isOp := f.l.M.Ops[c.Name]
	if !isChild && !isOp {
		return fmt.Errorf("%s: unknown function or operation %s", c.Pos, c.Name)
	}
	if len(c.Args) != 0 {
		return fmt.Errorf("%s: operation call %s takes no arguments", c.Pos, c.Name)
	}
	if isChild {
		return f.call(child, nil, out)
	}
	return f.call(nil, op, out)
}

// call lowers a behavior call of a bound instance (in) or a named
// operation (op): an SCall, or under Inline the callee's body spliced in.
func (f *fctx) call(in *model.Instance, op *model.Operation, out *[]*Stmt) error {
	if !f.l.Inline || (in == nil && op.IsCodingRoot) {
		*out = append(*out, &Stmt{Kind: SCall, Inst: in, Op: op})
		return nil
	}
	if in == nil {
		in = model.NewInstance(op)
	}
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return notLowered("inline %s: %v", in.Op.Name, err)
		}
	}
	if in.Variant.Activation != nil {
		return notLowered("called operation %s has an ACTIVATION section", in.Op.Name)
	}
	for _, caller := range f.stack {
		if caller == in.Op {
			return notLowered("recursive behavior call to %s", in.Op.Name)
		}
	}
	if in.Variant.Behavior == nil {
		return nil
	}
	sub := &fctx{l: f.l, inst: in, nloc: f.nloc, stack: append(f.stack, in.Op)}
	return sub.lowerBlock(in.Variant.Behavior.Body, out)
}

// lowerPrint lowers print(): a value argument of run-time type becomes an
// if over its branches, since its rendering depends on its signedness.
func (f *fctx) lowerPrint(c *ast.CallExpr, out *[]*Stmt) error {
	parts := make([]PrintPart, len(c.Args))
	for i, a := range c.Args {
		if s, ok := a.(*ast.StrLit); ok {
			parts[i] = PrintPart{Str: s.Val, IsStr: true}
			continue
		}
		x, err := f.lowerExpr(a)
		if err != nil {
			return err
		}
		parts[i] = PrintPart{X: x}
	}
	printParts(parts, out)
	return nil
}

func printParts(parts []PrintPart, out *[]*Stmt) {
	for i, p := range parts {
		if p.IsStr || !p.X.dyn {
			continue
		}
		node := &Stmt{Kind: SIf, Cond: settle(p.X.A)}
		for _, br := range []struct {
			x   *Expr
			dst *[]*Stmt
		}{{p.X.B, &node.Then}, {p.X.C, &node.Else}} {
			alt := append([]PrintPart(nil), parts...)
			alt[i].X = br.x
			printParts(alt, br.dst)
		}
		*out = append(*out, node)
		return
	}
	*out = append(*out, &Stmt{Kind: SPrint, Parts: parts})
}

// ---- lvalues -------------------------------------------------------------

func (f *fctx) lowerLval(e ast.Expr) (*LVal, error) {
	switch ex := e.(type) {
	case *ast.Ident:
		if l := f.lookup(ex.Name); l != nil {
			return &LVal{Kind: LLocal, Local: l}, nil
		}
		if _, ok := f.inst.Labels[ex.Name]; ok {
			return nil, fmt.Errorf("%s: label %s is not assignable", ex.Pos, ex.Name)
		}
		if child, ok := f.inst.Bindings[ex.Name]; ok {
			c, err := f.childCtx(child)
			if err != nil {
				return nil, err
			}
			return c.lowerLval(child.Variant.Expression.X)
		}
		if r := f.l.M.Resource(ex.Name); r != nil {
			if r.IsMemory() {
				return nil, fmt.Errorf("%s: memory resource %s needs an index", ex.Pos, ex.Name)
			}
			return resourceLval(r)
		}
		return nil, fmt.Errorf("%s: unknown identifier %s", ex.Pos, ex.Name)
	case *ast.IndexExpr:
		return f.indexLval(ex)
	case *ast.BitsExpr:
		base, err := f.lowerLval(ex.X)
		if err != nil {
			return nil, err
		}
		hi, lo, err := f.constSlice(ex.Hi, ex.Lo)
		if err != nil {
			return nil, err
		}
		return &LVal{Kind: LSlice, Base: base, Hi: hi, Lo: lo}, nil
	default:
		return nil, fmt.Errorf("expression %T is not assignable", e)
	}
}

// resourceLval resolves a scalar resource, or a register alias as a slice
// of the resource it aliases.
func resourceLval(r *model.Resource) (*LVal, error) {
	if !r.IsAlias {
		return &LVal{Kind: LScalar, Res: r}, nil
	}
	base, err := resourceLval(r.AliasOf)
	if err != nil {
		return nil, err
	}
	hi, lo := r.AliasHi, r.AliasLo
	if hi < lo {
		hi, lo = lo, hi
	}
	if lo < 0 || hi > 63 {
		return nil, notLowered("alias %s range [%d..%d]", r.Name, hi, lo)
	}
	return &LVal{Kind: LSlice, Base: base, Hi: hi, Lo: lo, Signed: r.Signed}, nil
}

// indexLval resolves x[i] and banked x[b][i]. Like the interpreter, the
// indexed name is looked up among the resources only.
func (f *fctx) indexLval(ex *ast.IndexExpr) (*LVal, error) {
	if inner, ok := ex.X.(*ast.IndexExpr); ok {
		if rid, ok := inner.X.(*ast.Ident); ok {
			if r := f.l.M.Resource(rid.Name); r != nil && r.Banks > 0 {
				bank, err := f.lowerExpr(inner.I)
				if err != nil {
					return nil, err
				}
				idx, err := f.lowerExpr(ex.I)
				if err != nil {
					return nil, err
				}
				return &LVal{Kind: LBank, Res: r, Bank: settle(bank), Idx: settle(idx)}, nil
			}
		}
	}
	rid, ok := ex.X.(*ast.Ident)
	if !ok {
		return nil, fmt.Errorf("%s: cannot index a non-resource expression", ex.Pos)
	}
	r := f.l.M.Resource(rid.Name)
	if r == nil {
		return nil, fmt.Errorf("%s: unknown memory resource %s", ex.Pos, rid.Name)
	}
	idx, err := f.lowerExpr(ex.I)
	if err != nil {
		return nil, err
	}
	if !r.IsMemory() {
		if idx.dyn {
			return nil, notLowered("bit index of run-time type")
		}
		base, err := resourceLval(r)
		if err != nil {
			return nil, err
		}
		return &LVal{Kind: LBit, Base: base, Idx: idx}, nil
	}
	return &LVal{Kind: LElem, Res: r, Idx: settle(idx)}, nil
}

// load re-reads an lvalue as its current value (rvalues, compound
// assignments, ++/--), mirroring the interpreter's ref.get.
func load(lv *LVal) *Expr {
	switch lv.Kind {
	case LLocal:
		return &Expr{Kind: ELocal, Local: lv.Local, W: lv.Local.W, Signed: lv.Local.Signed}
	case LScalar:
		return &Expr{Kind: EScalar, Res: lv.Res, W: lv.Res.Width, Signed: lv.Res.Signed}
	case LElem:
		return &Expr{Kind: EElem, Res: lv.Res, Idx: lv.Idx, W: lv.Res.Width, Signed: lv.Res.Signed}
	case LBank:
		return &Expr{Kind: EBank, Res: lv.Res, Bank: lv.Bank, Idx: lv.Idx, W: lv.Res.Width, Signed: lv.Res.Signed}
	case LSlice:
		return &Expr{Kind: ESlice, A: load(lv.Base), Hi: lv.Hi, N: lv.Lo, W: sliceWidth(lv.Hi, lv.Lo), Signed: lv.Signed}
	default: // LBit
		return &Expr{Kind: EBit, A: load(lv.Base), Idx: lv.Idx, W: 1}
	}
}

// ---- expressions ---------------------------------------------------------

func (f *fctx) lowerExpr(e ast.Expr) (*Expr, error) {
	switch ex := e.(type) {
	case *ast.NumLit:
		if ex.Val > 0x7fffffff {
			return &Expr{Kind: EConst, K: ex.Val, W: 64, Signed: true}, nil
		}
		return &Expr{Kind: EConst, K: ex.Val, W: 32, Signed: true}, nil
	case *ast.StrLit:
		return nil, fmt.Errorf("%s: string literal outside print()", ex.Pos)
	case *ast.Ident:
		return f.lowerIdent(ex)
	case *ast.IndexExpr, *ast.BitsExpr:
		// Indexed and bit-range rvalues resolve their location as an
		// lvalue, like the interpreter.
		lv, err := f.lowerLval(e)
		if err != nil {
			return nil, err
		}
		return fold(load(lv)), nil
	case *ast.UnaryExpr:
		v, err := f.lowerExpr(ex.X)
		if err != nil {
			return nil, err
		}
		return makeUn(ex.Op, v)
	case *ast.BinaryExpr:
		l, err := f.lowerExpr(ex.L)
		if err != nil {
			return nil, err
		}
		r, err := f.lowerExpr(ex.R)
		if err != nil {
			return nil, err
		}
		return makeBin(ex.Op, l, r)
	case *ast.CondExpr:
		c, err := f.lowerExpr(ex.C)
		if err != nil {
			return nil, err
		}
		t, err := f.lowerExpr(ex.T)
		if err != nil {
			return nil, err
		}
		fv, err := f.lowerExpr(ex.F)
		if err != nil {
			return nil, err
		}
		return makeCond(c, t, fv), nil
	case *ast.CallExpr:
		return f.lowerCall(ex)
	default:
		return nil, fmt.Errorf("unhandled expression %T", e)
	}
}

func (f *fctx) lowerIdent(id *ast.Ident) (*Expr, error) {
	if l := f.lookup(id.Name); l != nil {
		return &Expr{Kind: ELocal, Local: l, W: l.W, Signed: l.Signed}, nil
	}
	if lv, ok := f.inst.Labels[id.Name]; ok {
		return &Expr{Kind: EConst, K: lv.Uint(), W: lv.Width()}, nil
	}
	if child, ok := f.inst.Bindings[id.Name]; ok {
		c, err := f.childCtx(child)
		if err != nil {
			return nil, err
		}
		return c.lowerExpr(child.Variant.Expression.X)
	}
	if r := f.l.M.Resource(id.Name); r != nil {
		if r.IsMemory() {
			return nil, fmt.Errorf("%s: memory resource %s needs an index", id.Pos, id.Name)
		}
		lv, err := resourceLval(r)
		if err != nil {
			return nil, err
		}
		return load(lv), nil
	}
	return nil, fmt.Errorf("%s: unknown identifier %s", id.Pos, id.Name)
}

func (f *fctx) lowerCall(c *ast.CallExpr) (*Expr, error) {
	if !IsBuiltin(c.Name) || c.Name == "print" {
		if strings.Contains(c.Name, ".") {
			if _, _, _, err := resolvePipeCall(f.l.M, c); err != nil {
				return nil, err
			}
		} else if _, ok := f.inst.Bindings[c.Name]; !ok && c.Name != "print" {
			if _, ok := f.l.M.Ops[c.Name]; !ok {
				return nil, fmt.Errorf("%s: unknown function or operation %s", c.Pos, c.Name)
			}
		}
		return nil, notLowered("call to %s inside an expression", c.Name)
	}
	if _, err := lookupBuiltin(c); err != nil {
		return nil, err
	}
	if c.Name == "wait_states" {
		v, err := waitStates(f.l.M, c)
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: EConst, K: v.v.Uint(), W: v.v.Width()}, nil
	}
	args := make([]*Expr, len(c.Args))
	for i, a := range c.Args {
		x, err := f.lowerExpr(a)
		if err != nil {
			return nil, err
		}
		args[i] = x
	}
	switch c.Name {
	case "abs":
		return spread(args[0], func(a *Expr) (*Expr, error) {
			return fold(&Expr{Kind: EAbs, A: a, W: a.W, Signed: true}), nil
		})
	case "min", "max":
		return spread(args[0], func(a *Expr) (*Expr, error) {
			return spread(args[1], func(b *Expr) (*Expr, error) { return makeMinMax(c.Name, a, b) })
		})
	case "saturate":
		to, err := constArg(args[1])
		if err != nil {
			return nil, err
		}
		to = min(max(to, 1), 64)
		return spread(args[0], func(a *Expr) (*Expr, error) {
			return fold(&Expr{Kind: ESat, A: a, N: int(to), W: a.W, Signed: true}), nil
		})
	case "sign_extend", "zero_extend":
		from, err := constArg(args[1])
		if err != nil {
			return nil, err
		}
		k, signed := EZext, false
		if c.Name == "sign_extend" {
			k, signed = ESext, true
		}
		return fold(&Expr{Kind: k, A: settle(args[0]), N: int(min(max(from, 1), 64)), W: 64, Signed: signed}), nil
	case "addsat", "subsat":
		op := "+"
		if c.Name == "subsat" {
			op = "-"
		}
		return spread(args[0], func(a *Expr) (*Expr, error) {
			return spread(args[1], func(b *Expr) (*Expr, error) {
				return fold(&Expr{Kind: EAddSat, Op: op, A: a, B: b, W: max(a.W, b.W), Signed: true}), nil
			})
		})
	default: // bits
		hi, lo, err := constSliceArgs(args[1], args[2])
		if err != nil {
			return nil, err
		}
		return fold(&Expr{Kind: ESlice, A: settle(args[0]), Hi: hi, N: lo, W: sliceWidth(hi, lo)}), nil
	}
}

// makeMinMax picks the smaller (or larger) operand like minMax: a signed
// compare of the operands' own values unless both are unsigned, ties
// picking a. Operands of one type use the kernel; otherwise the result
// has the chosen operand's type, a run-time-typed ?:.
func makeMinMax(name string, a, b *Expr) (*Expr, error) {
	if a.W == b.W && a.Signed == b.Signed {
		return fold(&Expr{Kind: EMinMax, Op: name, A: a, B: b, W: a.W, Signed: a.Signed}), nil
	}
	op := "<="
	if name == "max" {
		op = ">="
	}
	l, r := a, b
	if a.Signed || b.Signed {
		l = &Expr{Kind: ESext, A: a, N: a.W, W: 64, Signed: true}
		r = &Expr{Kind: ESext, A: b, N: b.W, W: 64, Signed: true}
	}
	cmp, err := makeBin(op, fold(l), fold(r))
	if err != nil {
		return nil, err
	}
	return makeCond(cmp, a, b), nil
}

// constArg folds an argument the builtins read as a compile-time integer
// (saturation and extension widths, bit ranges).
func constArg(x *Expr) (int64, error) {
	x = fold(settle(x))
	if x.Kind != EConst {
		return 0, notLowered("width or bit-range argument is not a constant")
	}
	return int64(kernel.SignExt(x.K, x.W)), nil
}

func (f *fctx) constSlice(hiE, loE ast.Expr) (hi, lo int, err error) {
	h, err := f.lowerExpr(hiE)
	if err != nil {
		return 0, 0, err
	}
	l, err := f.lowerExpr(loE)
	if err != nil {
		return 0, 0, err
	}
	return constSliceArgs(h, l)
}

// constSliceArgs folds a hi/lo bit-range pair, normalizing hi >= lo
// exactly like bitvec.Slice, and bounding both into [0,63].
func constSliceArgs(hiX, loX *Expr) (hi, lo int, err error) {
	h, err := constArg(hiX)
	if err != nil {
		return 0, 0, err
	}
	l, err := constArg(loX)
	if err != nil {
		return 0, 0, err
	}
	if h < l {
		h, l = l, h
	}
	if l < 0 || h > 63 {
		return 0, 0, notLowered("bit range [%d..%d] out of 0..63", h, l)
	}
	return int(h), int(l), nil
}

func makeUn(op string, v *Expr) (*Expr, error) {
	switch op {
	case "+":
		return v, nil
	case "!":
		return fold(&Expr{Kind: EUn, Op: "!", A: settle(v), W: 1}), nil
	case "-", "~":
		return spread(v, func(a *Expr) (*Expr, error) {
			return fold(&Expr{Kind: EUn, Op: op, A: a, W: a.W, Signed: op == "-" || a.Signed}), nil
		})
	}
	return nil, fmt.Errorf("unknown unary operator %s", op)
}

// makeBin builds a binary node with the exact static width/signedness
// rules of behavior.binop.
func makeBin(op string, l, r *Expr) (*Expr, error) {
	switch op {
	case "&&", "||":
		l, r = settle(l), settle(r)
	case "<<", ">>":
		r = settle(r)
	}
	if l.dyn {
		return spread(l, func(a *Expr) (*Expr, error) { return makeBin(op, a, r) })
	}
	if r.dyn {
		return spread(r, func(b *Expr) (*Expr, error) { return makeBin(op, l, b) })
	}
	e := &Expr{Kind: EBin, Op: op, A: l, B: r}
	switch op {
	case "+", "-", "*", "/", "%", "&", "|", "^":
		e.W, e.Signed = max(l.W, r.W), l.Signed || r.Signed
	case "<<", ">>":
		e.W, e.Signed = l.W, l.Signed
	case "==", "!=", "<", "<=", ">", ">=", "&&", "||":
		e.W = 1
	default:
		return nil, fmt.Errorf("unknown binary operator %s", op)
	}
	return fold(e), nil
}

// makeCond builds c ? t : f. Branches of different types make a
// run-time-typed node for its consumer to spread or settle.
func makeCond(c, t, f *Expr) *Expr {
	c = settle(c)
	if t.dyn || f.dyn || t.W != f.W || t.Signed != f.Signed {
		return &Expr{Kind: ECond, A: c, B: t, C: f, W: max(t.W, f.W), dyn: true}
	}
	return fold(&Expr{Kind: ECond, A: c, B: t, C: f, W: t.W, Signed: t.Signed})
}

// spread applies a typed consumer to each branch of a run-time-typed
// value, so every operator runs at the types the interpreter would see.
func spread(e *Expr, consume func(*Expr) (*Expr, error)) (*Expr, error) {
	if !e.dyn {
		return consume(e)
	}
	t, err := spread(e.B, consume)
	if err != nil {
		return nil, err
	}
	f, err := spread(e.C, consume)
	if err != nil {
		return nil, err
	}
	return makeCond(e.A, t, f), nil
}

// settle resolves a run-time-typed value for a consumer that reads only
// its payload (truth tests, addresses, shift counts, resource stores):
// each branch's payload is zero-extended at its own width, so selecting
// payloads at the wider width is exact.
func settle(e *Expr) *Expr {
	if !e.dyn {
		return e
	}
	t, f := settle(e.B), settle(e.C)
	return fold(&Expr{Kind: ECond, A: e.A, B: t, C: f, W: max(t.W, f.W)})
}

func sliceWidth(hi, lo int) int { return clampW(hi - lo + 1) }

func clampW(w int) int { return min(max(w, 1), 64) }

// fold collapses a node whose operands are all constants by evaluating it
// through the threaded-code backend on a nil Exec (constant subtrees
// never touch machine state). Labels resolve to constants, so operand
// address arithmetic like A[index] or data_mem[Base+offset] folds to a
// constant index at lowering time.
func fold(e *Expr) *Expr {
	if e.Kind == EConst || !isConstTree(e) {
		return e
	}
	return &Expr{Kind: EConst, K: exprFn(e)(nil), W: e.W, Signed: e.Signed}
}

func isConstTree(e *Expr) bool {
	if e == nil {
		return true
	}
	switch e.Kind {
	case EConst:
		return true
	case ELocal, EScalar, EElem, EBank:
		return false
	}
	return isConstTree(e.A) && isConstTree(e.B) && isConstTree(e.C) && isConstTree(e.Idx)
}
