package sema

import (
	"strings"
	"testing"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
	"golisa/internal/parser"
)

func build(t *testing.T, src string) *model.Model {
	t.Helper()
	d, perrs := parser.Parse(src, "test.lisa")
	for _, e := range perrs {
		t.Fatalf("parse: %v", e)
	}
	m, errs := Build("test", d)
	for _, e := range errs {
		t.Errorf("sema: %v", e)
	}
	if t.Failed() {
		t.FailNow()
	}
	return m
}

func buildErrs(t *testing.T, src string) []error {
	t.Helper()
	d, perrs := parser.Parse(src, "test.lisa")
	if len(perrs) > 0 {
		t.Fatalf("parse: %v", perrs[0])
	}
	_, errs := Build("test", d)
	return errs
}

func wantErr(t *testing.T, errs []error, substr string) {
	t.Helper()
	for _, e := range errs {
		if strings.Contains(e.Error(), substr) {
			return
		}
	}
	t.Errorf("no error containing %q; got %v", substr, errs)
}

func TestResourceResolution(t *testing.T) {
	m := build(t, `
RESOURCE {
  PROGRAM_COUNTER int pc;
  REGISTER bit[48] accu;
  REGISTER bit[32] accu_hi ALIAS accu[47..16];
  DATA_MEMORY int mem[0x100] WAIT 2;
  DATA_MEMORY int banked[4]([0x20]);
  PROGRAM_MEMORY int prog[0x100..0x1ff];
}`)
	if len(m.Resources) != 6 {
		t.Fatalf("resources = %d", len(m.Resources))
	}
	if m.Resource("pc").Class != ast.ClassProgramCounter {
		t.Error("pc class")
	}
	ah := m.Resource("accu_hi")
	if !ah.IsAlias || ah.AliasOf != m.Resource("accu") || ah.Width != 32 {
		t.Errorf("alias: %+v", ah)
	}
	if m.Resource("mem").Wait != 2 {
		t.Error("wait states lost")
	}
	b := m.Resource("banked")
	if b.Banks != 4 || b.Size != 0x20 || b.Total() != 0x80 {
		t.Errorf("banked: %+v", b)
	}
	p := m.Resource("prog")
	if p.Base != 0x100 || p.Size != 0x100 {
		t.Errorf("ranged: %+v", p)
	}
}

func TestStateSlots(t *testing.T) {
	m := build(t, `
RESOURCE {
  REGISTER int a;
  DATA_MEMORY int mem[16];
  REGISTER int b;
  REGISTER bit[16] a_lo ALIAS a[15..0];
}`)
	s := model.NewState(m)
	if len(s.Scalars) != 2 || len(s.Arrays) != 1 {
		t.Fatalf("slots: %d scalars, %d arrays", len(s.Scalars), len(s.Arrays))
	}
	// write through alias
	s.Write(m.Resource("a"), bitvec.New(0xdeadbeef, 32))
	if got := s.Read(m.Resource("a_lo")).Uint(); got != 0xbeef {
		t.Errorf("alias read: %#x", got)
	}
	s.Write(m.Resource("a_lo"), bitvec.New(0x1234, 16))
	if got := s.Read(m.Resource("a")).Uint(); got != 0xdead1234 {
		t.Errorf("alias write: %#x", got)
	}
}

func TestGroupResolution(t *testing.T) {
	m := build(t, `
OPERATION root {
  DECLARE { GROUP Insn = { add; sub }; }
  CODING { ir == Insn }
  BEHAVIOR { Insn(); }
}
OPERATION add { CODING { 0b0 } SYNTAX { "ADD" } }
OPERATION sub { CODING { 0b1 } SYNTAX { "SUB" } }
RESOURCE { CONTROL_REGISTER int ir; }
`)
	root := m.Ops["root"]
	g := root.Groups["Insn"]
	if g == nil || len(g.Members) != 2 {
		t.Fatalf("group: %+v", g)
	}
	if g.Members[0] != m.Ops["add"] {
		t.Error("member identity")
	}
	if !root.IsCodingRoot || root.RootResource != m.Resource("ir") {
		t.Error("coding root not detected")
	}
	if m.Ops["add"].CodingWidth != 1 {
		t.Errorf("add width = %d", m.Ops["add"].CodingWidth)
	}
}

func TestVariantFlatteningSwitch(t *testing.T) {
	m := build(t, `
OPERATION register {
  DECLARE { GROUP Side = { side1; side2 }; LABEL index; }
  CODING { Side index:0bx[4] }
  SWITCH (Side) {
    CASE side1: { SYNTAX { "A" index:#u } }
    CASE side2: { SYNTAX { "B" index:#u } }
  }
}
OPERATION side1 { CODING { 0b0 } }
OPERATION side2 { CODING { 0b1 } }
`)
	reg := m.Ops["register"]
	if len(reg.Variants) != 2 {
		t.Fatalf("variants = %d, want 2", len(reg.Variants))
	}
	v0 := reg.Variants[0]
	if len(v0.Guards) != 1 || v0.Guards[0].Member != m.Ops["side1"] || v0.Guards[0].Negate {
		t.Errorf("guard: %+v", v0.Guards)
	}
	if v0.Coding == nil || v0.Syntax == nil {
		t.Error("variant should inherit base coding and carry case syntax")
	}
	// select by binding
	sel := map[string]*model.Operation{"Side": m.Ops["side2"]}
	v := reg.SelectVariant(sel)
	if v != reg.Variants[1] {
		t.Error("variant selection by group member failed")
	}
	if reg.CodingWidth != 5 {
		t.Errorf("coding width = %d, want 5", reg.CodingWidth)
	}
}

func TestVariantFlatteningIfElse(t *testing.T) {
	m := build(t, `
OPERATION op {
  DECLARE { GROUP g = { a; b; c }; }
  CODING { g }
  IF (g == a) { SYNTAX { "ISA" } } ELSE { SYNTAX { "NOTA" } }
}
OPERATION a { CODING { 0b00 } }
OPERATION b { CODING { 0b01 } }
OPERATION c { CODING { 0b10 } }
`)
	op := m.Ops["op"]
	if len(op.Variants) != 2 {
		t.Fatalf("variants = %d", len(op.Variants))
	}
	selB := map[string]*model.Operation{"g": m.Ops["b"]}
	v := op.SelectVariant(selB)
	if v == nil || v.Syntax == nil {
		t.Fatal("no variant for g==b")
	}
	if s := v.Syntax.Elems[0].(*ast.SyntaxString).Text; s != "NOTA" {
		t.Errorf("else-branch syntax: %q", s)
	}
}

func TestSwitchDefaultCase(t *testing.T) {
	m := build(t, `
OPERATION op {
  DECLARE { GROUP g = { a; b; c }; }
  CODING { g }
  SWITCH (g) {
    CASE a: { SYNTAX { "A" } }
    DEFAULT: { SYNTAX { "OTHER" } }
  }
}
OPERATION a { CODING { 0b00 } }
OPERATION b { CODING { 0b01 } }
OPERATION c { CODING { 0b10 } }
`)
	op := m.Ops["op"]
	v := op.SelectVariant(map[string]*model.Operation{"g": m.Ops["c"]})
	if v == nil {
		t.Fatal("default variant missing")
	}
	if s := v.Syntax.Elems[0].(*ast.SyntaxString).Text; s != "OTHER" {
		t.Errorf("default syntax: %q", s)
	}
	v = op.SelectVariant(map[string]*model.Operation{"g": m.Ops["a"]})
	if s := v.Syntax.Elems[0].(*ast.SyntaxString).Text; s != "A" {
		t.Errorf("case-a syntax: %q", s)
	}
}

func TestStageAssignment(t *testing.T) {
	m := build(t, `
RESOURCE { PIPELINE pipe = { FE; DE; EX }; }
OPERATION exec IN pipe.EX { BEHAVIOR { ; } }
`)
	op := m.Ops["exec"]
	if !op.HasStage() || op.Pipe.Name != "pipe" || op.StageIdx != 2 {
		t.Errorf("stage: %+v", op)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"dup resource", `RESOURCE { REGISTER int a; REGISTER int a; }`, "duplicate resource"},
		{"unknown alias", `RESOURCE { REGISTER bit[8] x ALIAS nosuch[7..0]; }`, "unknown resource"},
		{"alias width", `RESOURCE { REGISTER bit[8] a; REGISTER bit[8] x ALIAS a[3..0]; }`, "has 4 bits"},
		{"alias range", `RESOURCE { REGISTER bit[8] a; REGISTER bit[4] x ALIAS a[11..8]; }`, "exceeds"},
		{"unknown member", `OPERATION o { DECLARE { GROUP g = { nosuch }; } CODING { g } }`, "unknown operation"},
		{"unknown pipeline", `OPERATION o IN nopipe.X { CODING { 0b0 } }`, "unknown pipeline"},
		// Memories above model.MaxStateElems used to be allocated by
		// model.NewState: per declaration, per bank and summed.
		{"huge memory", `RESOURCE { DATA_MEMORY int m[0x7FFFFFFFFF]; }`, "exceeds the limit"},
		{"huge banks", `RESOURCE { DATA_MEMORY int m[0x7fffffff]([0x7fffffff]); }`, "exceeds the limit"},
		{"huge range", `RESOURCE { PROGRAM_MEMORY int m[0x100..0xffffffffff]; }`, "exceeds the limit"},
		{"memories summed", `RESOURCE { DATA_MEMORY int a[0x300000]; DATA_MEMORY int b[0x300000]; }`, "memory b of 1×3145728 elements exceeds the limit"},
		{"unknown stage", `RESOURCE { PIPELINE p = { A; B }; } OPERATION o IN p.C { CODING { 0b0 } }`, "unknown stage"},
		{"undeclared label", `OPERATION o { CODING { f:0bx[4] } }`, "undeclared label"},
		{"unknown coding ref", `OPERATION o { CODING { nosuch } }`, "unknown operation or group"},
		{"group width mismatch", `
OPERATION o { DECLARE { GROUP g = { a; b }; } CODING { g } }
OPERATION a { CODING { 0b0 } }
OPERATION b { CODING { 0b11 } }`, "differs"},
		{"recursive coding", `OPERATION o { DECLARE { REFERENCE o; } CODING { o } }`, "recursive"},
		{"unknown activation", `OPERATION o { ACTIVATION { nosuch } }`, "unknown operation or group"},
		{"root width overflow", `
RESOURCE { CONTROL_REGISTER bit[4] ir; }
OPERATION o { DECLARE { GROUP g = { a }; } CODING { ir == g } }
OPERATION a { CODING { 0b00000000 } }`, "exceeds resource"},
		{"case not member", `
OPERATION o { DECLARE { GROUP g = { a }; } CODING { g } SWITCH (g) { CASE b: { SYNTAX { "X" } } } }
OPERATION a { CODING { 0b0 } }
OPERATION b { CODING { 0b0 } }`, "not a member"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			errs := buildErrs(t, c.src)
			wantErr(t, errs, c.want)
		})
	}
}

func TestStatsPaperShape(t *testing.T) {
	src := `
RESOURCE { CONTROL_REGISTER bit[8] ir; REGISTER int r0; }
OPERATION decode {
  DECLARE { GROUP Insn = { add; sub; mv_alias }; }
  CODING { ir == Insn }
}
OPERATION add { CODING { 0b00000000 } SYNTAX { "ADD" } }
OPERATION sub { CODING { 0b00000001 } SYNTAX { "SUB" } }
OPERATION mv_alias ALIAS { CODING { 0b00000001 } SYNTAX { "MV" } }
OPERATION helper { BEHAVIOR { ; } }
`
	m := build(t, src)
	m.SourceLines = CountSourceLines(src)
	st := m.ComputeStats()
	if st.Resources != 2 {
		t.Errorf("resources = %d", st.Resources)
	}
	if st.Operations != 5 {
		t.Errorf("operations = %d", st.Operations)
	}
	if st.Instructions != 2 {
		t.Errorf("instructions = %d, want 2", st.Instructions)
	}
	if st.Aliases != 1 {
		t.Errorf("aliases = %d, want 1", st.Aliases)
	}
	if st.SourceLines == 0 || st.LinesPerOp <= 0 {
		t.Errorf("lines: %+v", st)
	}
	if !strings.Contains(st.String(), "2 instructions + 1 aliases") {
		t.Errorf("stats string: %s", st.String())
	}
}

func TestCountSourceLines(t *testing.T) {
	if n := CountSourceLines("a\n\n  \nb\n"); n != 2 {
		t.Errorf("lines = %d, want 2", n)
	}
}

func TestCodingWidthOver64Rejected(t *testing.T) {
	// bitvec values carry at most 64 bits; a wider coding (possible for
	// non-root operations via concatenation, since declared resource
	// widths are already bounded) would silently truncate in the decoder.
	errs := buildErrs(t, `
RESOURCE {
  REGISTER bit[64] insn;
}
OPERATION wide {
  CODING { 0bx[40] 0bx[40] }
  SYNTAX { "W" }
}
OPERATION root {
  DECLARE { GROUP I = { wide }; }
  CODING { insn == I }
}`)
	wantErr(t, errs, "exceeds the 64-bit instruction word limit")
}

func TestCodingWidthExactly64Accepted(t *testing.T) {
	m := build(t, `
RESOURCE {
  REGISTER bit[64] insn;
}
OPERATION w64 {
  CODING { 0bx[32] 0bx[32] }
  SYNTAX { "W" }
}
OPERATION root {
  DECLARE { GROUP I = { w64 }; }
  CODING { insn == I }
}`)
	if got := m.Ops["w64"].CodingWidth; got != 64 {
		t.Errorf("w64 coding width = %d, want 64", got)
	}
}
