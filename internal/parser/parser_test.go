package parser

import (
	"strings"
	"testing"

	"golisa/internal/ast"
)

func mustParse(t *testing.T, src string) *ast.Description {
	t.Helper()
	d, errs := Parse(src, "test.lisa")
	for _, e := range errs {
		t.Errorf("parse error: %v", e)
	}
	if t.Failed() {
		t.FailNow()
	}
	return d
}

// Paper Example 1: declaration of resources.
func TestResourceSectionPaperExample1(t *testing.T) {
	src := `
RESOURCE {
  PROGRAM_COUNTER int pc;
  CONTROL_REGISTER int instruction_register;
  REGISTER bit[48] accu;
  REGISTER bit carry;
  DATA_MEMORY int data_mem1[0x80000];
  DATA_MEMORY int data_mem2[4]([0x20000]);
  PROGRAM_MEMORY int prog_mem[0x100..0xffff];
}
`
	d := mustParse(t, src)
	if len(d.Resources) != 7 {
		t.Fatalf("got %d resources, want 7", len(d.Resources))
	}
	pc := d.Resources[0]
	if pc.Class != ast.ClassProgramCounter || pc.Name != "pc" || pc.IsMemory() {
		t.Errorf("pc decl wrong: %+v", pc)
	}
	accu := d.Resources[2]
	if accu.Type.Kind != ast.TypeBit || accu.Type.Width != 48 {
		t.Errorf("accu type = %+v, want bit[48]", accu.Type)
	}
	carry := d.Resources[3]
	if carry.Type.Width != 1 {
		t.Errorf("carry width = %d, want 1", carry.Type.Width)
	}
	m1 := d.Resources[4]
	if m1.Size != 0x80000 || m1.Banks != 0 {
		t.Errorf("data_mem1: %+v", m1)
	}
	m2 := d.Resources[5]
	if m2.Banks != 4 || m2.Size != 0x20000 {
		t.Errorf("data_mem2 banked: banks=%d size=%#x", m2.Banks, m2.Size)
	}
	pm := d.Resources[6]
	if !pm.HasRange || pm.RangeLo != 0x100 || pm.RangeHi != 0xffff {
		t.Errorf("prog_mem range: %+v", pm)
	}
}

// Paper Example 2: pipeline definition.
func TestPipelineDeclPaperExample2(t *testing.T) {
	src := `
RESOURCE {
  PIPELINE fetch_pipe = { PG; PS; PW; PR; DP };
  PIPELINE execute_pipe = { DC; E1; E2; E3; E4; E5 };
}
`
	d := mustParse(t, src)
	if len(d.Pipelines) != 2 {
		t.Fatalf("got %d pipelines", len(d.Pipelines))
	}
	fp := d.Pipelines[0]
	if fp.Name != "fetch_pipe" || strings.Join(fp.Stages, " ") != "PG PS PW PR DP" {
		t.Errorf("fetch_pipe = %+v", fp)
	}
	ep := d.Pipelines[1]
	if len(ep.Stages) != 6 || ep.Stages[5] != "E5" {
		t.Errorf("execute_pipe = %+v", ep)
	}
}

// Paper Example 3: root of the coding tree.
func TestCodingRootPaperExample3(t *testing.T) {
	src := `
OPERATION decode {
  DECLARE {
    GROUP Instruction = { abs; add; and; cmp; ld; mul; mv; norm; not; or; sat; sub; st; xor };
  }
  CODING { instruction_register == Instruction }
  SYNTAX { Instruction }
  BEHAVIOR { Instruction(); }
}
`
	d := mustParse(t, src)
	op := d.Operations[0]
	if op.Name != "decode" {
		t.Fatalf("op name %q", op.Name)
	}
	ds := op.Sections[0].(*ast.DeclareSec)
	if len(ds.Groups) != 1 || len(ds.Groups[0].Members) != 14 {
		t.Fatalf("group members = %d, want 14", len(ds.Groups[0].Members))
	}
	cs := op.Sections[1].(*ast.CodingSec)
	if cs.CompareTo != "instruction_register" {
		t.Errorf("coding root resource = %q", cs.CompareTo)
	}
	if ref, ok := cs.Elems[0].(*ast.CodingRef); !ok || ref.Name != "Instruction" {
		t.Errorf("coding elem = %+v", cs.Elems[0])
	}
}

// Paper Example 4: operation groups, coding, syntax, behavior, labels.
func TestOperationGroupsPaperExample4(t *testing.T) {
	src := `
OPERATION add_d {
  DECLARE { GROUP Dest, Src1, Src2 = { register }; }
  CODING { Dest Src2 Src1 0b0000010000 0b1 0b10000 }
  SYNTAX { "ADD" ".D" Src1 "," Src2 "," Dest }
  BEHAVIOR { Dest = Src1 + Src2; }
}

OPERATION register {
  DECLARE { LABEL index; }
  CODING { 0bx index:0bx[4] }
  SYNTAX { "A" index:#u }
  EXPRESSION { A[index] }
}
`
	d := mustParse(t, src)
	if len(d.Operations) != 2 {
		t.Fatalf("got %d operations", len(d.Operations))
	}
	add := d.Operations[0]
	ds := add.Sections[0].(*ast.DeclareSec)
	if strings.Join(ds.Groups[0].Names, ",") != "Dest,Src1,Src2" {
		t.Errorf("group names: %v", ds.Groups[0].Names)
	}
	cs := add.Sections[1].(*ast.CodingSec)
	if len(cs.Elems) != 6 {
		t.Fatalf("coding elems = %d, want 6", len(cs.Elems))
	}
	if pat, ok := cs.Elems[3].(*ast.CodingPattern); !ok || pat.Bits != "0000010000" {
		t.Errorf("coding pattern: %+v", cs.Elems[3])
	}
	ss := add.Sections[2].(*ast.SyntaxSec)
	if s, ok := ss.Elems[0].(*ast.SyntaxString); !ok || s.Text != "ADD" {
		t.Errorf("mnemonic: %+v", ss.Elems[0])
	}
	bs := add.Sections[3].(*ast.BehaviorSec)
	as, ok := bs.Body.Stmts[0].(*ast.AssignStmt)
	if !ok || as.Op != "=" {
		t.Fatalf("behavior stmt: %+v", bs.Body.Stmts[0])
	}
	bin, ok := as.RHS.(*ast.BinaryExpr)
	if !ok || bin.Op != "+" {
		t.Errorf("behavior rhs: %+v", as.RHS)
	}

	reg := d.Operations[1]
	rds := reg.Sections[0].(*ast.DeclareSec)
	if len(rds.Labels) != 1 || rds.Labels[0] != "index" {
		t.Errorf("labels: %v", rds.Labels)
	}
	rcs := reg.Sections[1].(*ast.CodingSec)
	if f, ok := rcs.Elems[1].(*ast.CodingField); !ok || f.Label != "index" || f.Bits != "xxxx" {
		t.Errorf("coding field: %+v", rcs.Elems[1])
	}
	rss := reg.Sections[2].(*ast.SyntaxSec)
	if ref, ok := rss.Elems[1].(*ast.SyntaxRef); !ok || ref.Name != "index" || ref.Format != "#u" {
		t.Errorf("syntax param: %+v", rss.Elems[1])
	}
	es := reg.Sections[3].(*ast.ExpressionSec)
	if _, ok := es.X.(*ast.IndexExpr); !ok {
		t.Errorf("expression: %+v", es.X)
	}
}

// Paper Example 5: activation of operations.
func TestActivationPaperExample5(t *testing.T) {
	src := `
OPERATION Prog_Address_Generate IN fetch_pipe.PG { BEHAVIOR { ; } }

OPERATION main {
  ACTIVATION {
    if (dispatch_complete && !multicycle_nop) {
      Prog_Address_Generate,
      Prog_Address_Send,
      Prog_Access_Ready_Wait,
      Prog_Fetch_Packet_Receive,
      Dispatch
    }
    if (multicycle_nop) {
      fetch_pipe.DP.stall(),
      execute_pipe.DC.stall()
    },
    fetch_pipe.shift(),
    execute_pipe.shift()
  }
}
`
	d := mustParse(t, src)
	pag := d.Operations[0]
	if pag.Pipe != "fetch_pipe" || pag.Stage != "PG" {
		t.Errorf("stage assignment: %q.%q", pag.Pipe, pag.Stage)
	}
	main := d.Operations[1]
	as := main.Sections[0].(*ast.ActivationSec)
	if len(as.Items) != 4 {
		t.Fatalf("activation items = %d, want 4", len(as.Items))
	}
	if1, ok := as.Items[0].(*ast.ActIf)
	if !ok || len(if1.Then) != 5 {
		t.Fatalf("first if: %+v", as.Items[0])
	}
	if ref, ok := if1.Then[0].(*ast.ActRef); !ok || ref.Name != "Prog_Address_Generate" || ref.Delay != 0 {
		t.Errorf("first activation: %+v", if1.Then[0])
	}
	if2 := as.Items[1].(*ast.ActIf)
	po, ok := if2.Then[0].(*ast.ActPipeOp)
	if !ok || po.Pipe != "fetch_pipe" || po.Stage != "DP" || po.Op != "stall" {
		t.Errorf("stall op: %+v", if2.Then[0])
	}
	sh, ok := as.Items[2].(*ast.ActPipeOp)
	if !ok || sh.Pipe != "fetch_pipe" || sh.Stage != "" || sh.Op != "shift" {
		t.Errorf("shift op: %+v", as.Items[2])
	}
}

// Paper Example 6: conditional operation structuring.
func TestSwitchSectionPaperExample6(t *testing.T) {
	src := `
OPERATION register {
  DECLARE {
    GROUP Side = { side1; side2 };
    LABEL index;
  }
  CODING { Side index:0bx[4] }
  SWITCH (Side) {
    CASE side1: {
      SYNTAX { "A" index:#u }
      EXPRESSION { A[index] }
    }
    CASE side2: {
      SYNTAX { "B" index:#u }
      EXPRESSION { B[index] }
    }
  }
}

OPERATION side1 { CODING { 0b0 } SYNTAX { "1" } }
OPERATION side2 { CODING { 0b1 } SYNTAX { "2" } }
`
	d := mustParse(t, src)
	reg := d.Operations[0]
	var sw *ast.SwitchSec
	for _, s := range reg.Sections {
		if v, ok := s.(*ast.SwitchSec); ok {
			sw = v
		}
	}
	if sw == nil {
		t.Fatal("no SWITCH section parsed")
	}
	if sw.Group != "Side" || len(sw.Cases) != 2 {
		t.Fatalf("switch: %+v", sw)
	}
	c0 := sw.Cases[0]
	if c0.Members[0] != "side1" || len(c0.Sections) != 2 {
		t.Errorf("case side1: %+v", c0)
	}
	if _, ok := c0.Sections[1].(*ast.ExpressionSec); !ok {
		t.Errorf("case side1 expression: %+v", c0.Sections[1])
	}
}

func TestIfSection(t *testing.T) {
	src := `
OPERATION op {
  DECLARE { GROUP g = { a; b }; }
  CODING { g }
  IF (g == a) {
    SYNTAX { "A" }
  } ELSE {
    SYNTAX { "NOTA" }
  }
}
`
	d := mustParse(t, src)
	var ifs *ast.IfSec
	for _, s := range d.Operations[0].Sections {
		if v, ok := s.(*ast.IfSec); ok {
			ifs = v
		}
	}
	if ifs == nil {
		t.Fatal("no IF section")
	}
	if ifs.Group != "g" || ifs.Member != "a" || ifs.Negate {
		t.Errorf("if condition: %+v", ifs)
	}
	if len(ifs.Then) != 1 || len(ifs.Else) != 1 {
		t.Errorf("branches: then=%d else=%d", len(ifs.Then), len(ifs.Else))
	}
}

func TestOperationOptions(t *testing.T) {
	src := `
OPERATION mv ALIAS IN execute_pipe.E1 {
  CODING { 0b0 }
}
`
	d := mustParse(t, src)
	op := d.Operations[0]
	if !op.Alias || op.Pipe != "execute_pipe" || op.Stage != "E1" {
		t.Errorf("options: %+v", op)
	}
}

func TestSemanticsAndCustomSections(t *testing.T) {
	src := `
OPERATION add {
  SEMANTICS { ADD dst, src1, src2 }
  POWER { 12 mW typical }
  CODING { 0b0 }
}
`
	d := mustParse(t, src)
	op := d.Operations[0]
	sem := op.Sections[0].(*ast.SemanticsSec)
	if !strings.Contains(sem.Text, "ADD") {
		t.Errorf("semantics text: %q", sem.Text)
	}
	cust := op.Sections[1].(*ast.CustomSec)
	if cust.Name != "POWER" || !strings.Contains(cust.Text, "12") {
		t.Errorf("custom section: %+v", cust)
	}
}

func TestBehaviorStatements(t *testing.T) {
	src := `
OPERATION b {
  BEHAVIOR {
    int i;
    int acc = 0;
    bit[40] t = 1;
    for (i = 0; i < 8; i++) {
      acc += mem[i] * 2;
    }
    while (acc > 100) acc -= 10;
    do { acc++; } while (acc < 0);
    if (acc == 42) { carry = 1; } else carry = 0;
    switch (acc) {
      case 1: acc = 2; break;
      case 2, 3: acc = 4;
      default: acc = 0;
    }
    acc = acc < 0 ? -acc : acc;
    r = saturate(acc, 16);
    pc = pc + 1;
    x = a[3..0];
    return acc;
  }
}
`
	d := mustParse(t, src)
	bs := d.Operations[0].Sections[0].(*ast.BehaviorSec)
	if len(bs.Body.Stmts) < 12 {
		t.Fatalf("stmts = %d", len(bs.Body.Stmts))
	}
	decl := bs.Body.Stmts[2].(*ast.DeclStmt)
	if decl.Type.Kind != ast.TypeBit || decl.Type.Width != 40 {
		t.Errorf("bit[40] decl: %+v", decl)
	}
	f := bs.Body.Stmts[3].(*ast.ForStmt)
	if f.Init == nil || f.Cond == nil || f.Post == nil {
		t.Errorf("for stmt: %+v", f)
	}
	sw := bs.Body.Stmts[7].(*ast.SwitchStmt)
	if len(sw.Cases) != 3 || len(sw.Cases[1].Vals) != 2 || !sw.Cases[2].Default {
		t.Errorf("switch: %+v", sw)
	}
	// acc = cond ? ... : ...
	cas := bs.Body.Stmts[8].(*ast.AssignStmt)
	if _, ok := cas.RHS.(*ast.CondExpr); !ok {
		t.Errorf("cond expr: %+v", cas.RHS)
	}
	// x = a[3..0]
	bits := bs.Body.Stmts[11].(*ast.AssignStmt)
	if _, ok := bits.RHS.(*ast.BitsExpr); !ok {
		t.Errorf("bits expr: %+v", bits.RHS)
	}
}

func TestExpressionPrecedence(t *testing.T) {
	src := `OPERATION b { BEHAVIOR { x = 1 + 2 * 3 == 7 && 4 | 2; } }`
	d := mustParse(t, src)
	as := d.Operations[0].Sections[0].(*ast.BehaviorSec).Body.Stmts[0].(*ast.AssignStmt)
	// top must be && (prec 2) with | on the right? No: | (3) binds tighter
	// than && (2), so top is &&.
	top, ok := as.RHS.(*ast.BinaryExpr)
	if !ok || top.Op != "&&" {
		t.Fatalf("top op: %+v", as.RHS)
	}
	l := top.L.(*ast.BinaryExpr)
	if l.Op != "==" {
		t.Errorf("left of &&: %s", l.Op)
	}
	add := l.L.(*ast.BinaryExpr)
	if add.Op != "+" {
		t.Errorf("expected + below ==: %s", add.Op)
	}
	mul := add.R.(*ast.BinaryExpr)
	if mul.Op != "*" {
		t.Errorf("expected * right of +: %s", mul.Op)
	}
	r := top.R.(*ast.BinaryExpr)
	if r.Op != "|" {
		t.Errorf("right of &&: %s", r.Op)
	}
}

func TestDottedCallInBehavior(t *testing.T) {
	src := `OPERATION b { BEHAVIOR { fetch_pipe.DP.stall(); p.shift(); } }`
	d := mustParse(t, src)
	b := d.Operations[0].Sections[0].(*ast.BehaviorSec).Body
	c0 := b.Stmts[0].(*ast.ExprStmt).X.(*ast.CallExpr)
	if c0.Name != "fetch_pipe.DP.stall" {
		t.Errorf("dotted call: %q", c0.Name)
	}
	c1 := b.Stmts[1].(*ast.ExprStmt).X.(*ast.CallExpr)
	if c1.Name != "p.shift" {
		t.Errorf("dotted call: %q", c1.Name)
	}
}

func TestDelayedActivation(t *testing.T) {
	src := `OPERATION m { ACTIVATION { a, b; c; d } }`
	d := mustParse(t, src)
	as := d.Operations[0].Sections[0].(*ast.ActivationSec)
	delays := []int{}
	for _, it := range as.Items {
		delays = append(delays, it.(*ast.ActRef).Delay)
	}
	want := []int{0, 0, 1, 2}
	for i := range want {
		if delays[i] != want[i] {
			t.Errorf("item %d delay = %d, want %d", i, delays[i], want[i])
		}
	}
}

func TestAliasResourceDecl(t *testing.T) {
	src := `
RESOURCE {
  REGISTER bit[48] accu;
  REGISTER bit[32] accu_hi ALIAS accu[47..16];
}
`
	d := mustParse(t, src)
	a := d.Resources[1]
	if !a.IsAlias || a.AliasOf != "accu" || a.AliasHi != 47 || a.AliasLo != 16 {
		t.Errorf("alias: %+v", a)
	}
}

func TestWaitStates(t *testing.T) {
	src := `RESOURCE { DATA_MEMORY int m[256] WAIT 2; }`
	d := mustParse(t, src)
	if d.Resources[0].Wait != 2 {
		t.Errorf("wait = %d", d.Resources[0].Wait)
	}
}

func TestParseErrorsRecover(t *testing.T) {
	src := `
OPERATION broken { CODING { ??? } }
OPERATION fine { CODING { 0b01 } }
`
	d, errs := Parse(src, "t")
	if len(errs) == 0 {
		t.Fatal("expected errors")
	}
	// Recovery should still find the second operation.
	found := false
	for _, op := range d.Operations {
		if op.Name == "fine" {
			found = true
		}
	}
	if !found {
		t.Error("parser did not recover to parse the second operation")
	}
}

func TestParseErrorMessagesHavePositions(t *testing.T) {
	_, errs := Parse("OPERATION x { CODING { $ } }", "file.lisa")
	if len(errs) == 0 {
		t.Fatal("expected error")
	}
	if !strings.Contains(errs[0].Error(), "file.lisa:") {
		t.Errorf("error lacks position: %v", errs[0])
	}
}

func TestCodingPatternReplication(t *testing.T) {
	src := `OPERATION n { CODING { 0bx[16] 0b0[4] } }`
	d := mustParse(t, src)
	cs := d.Operations[0].Sections[0].(*ast.CodingSec)
	p0 := cs.Elems[0].(*ast.CodingPattern)
	if len(p0.Bits) != 16 || strings.Trim(p0.Bits, "x") != "" {
		t.Errorf("replicated pattern: %q", p0.Bits)
	}
	p1 := cs.Elems[1].(*ast.CodingPattern)
	if p1.Bits != "0000" {
		t.Errorf("replicated zero pattern: %q", p1.Bits)
	}
}

// TestCodingRepeatBounded pins that a repeat count that is zero, does not
// fit an int or widens the pattern past 64 bits is a parse error, raised
// before the repeated pattern is built.
func TestCodingRepeatBounded(t *testing.T) {
	for _, rep := range []string{"0b0[4294967295]", "0b0[0]", "0b01[33]", "0bx[65]", "f:0b0[18446744073709551615]"} {
		_, errs := Parse("OPERATION n { DECLARE { LABEL f; } CODING { "+rep+" } }", "t")
		if len(errs) == 0 || !strings.Contains(errs[0].Error(), "at most 64 bits wide") {
			t.Errorf("%s: errors %v, want a bounded-repeat error", rep, errs)
		}
	}
	d := mustParse(t, "OPERATION n { CODING { 0b01[32] 0bx[64] } }")
	if got := len(d.Operations[0].Sections[0].(*ast.CodingSec).Elems[0].(*ast.CodingPattern).Bits); got != 64 {
		t.Errorf("0b01[32] expands to %d bits, want 64", got)
	}
}

func TestEmptyDescription(t *testing.T) {
	d := mustParse(t, "  // nothing\n")
	if len(d.Operations)+len(d.Resources)+len(d.Pipelines) != 0 {
		t.Error("expected empty description")
	}
}
