package behavior

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"golisa/internal/bitvec"
	"golisa/internal/model"
	"golisa/internal/parser"
	"golisa/internal/sema"
)

// runBoth executes the same operation through the interpreter and the
// compiled engine (the typed IR run as threaded code) on separate states
// and compares every resource.
func runBoth(t *testing.T, src, opName string) {
	t.Helper()
	d, perrs := parser.Parse(src, "compile_test.lisa")
	for _, e := range perrs {
		t.Fatalf("parse: %v", e)
	}
	m, errs := sema.Build("compile-test", d)
	for _, e := range errs {
		t.Fatalf("sema: %v", e)
	}
	sInterp := model.NewState(m)
	sComp := model.NewState(m)
	xi := &Exec{M: m, S: sInterp}
	xc := &Exec{M: m, S: sComp}
	in1 := model.NewInstance(m.Ops[opName])
	in2 := model.NewInstance(m.Ops[opName])
	errI := xi.Run(in1)
	errC := RunCompiled(xc, in2)
	if (errI == nil) != (errC == nil) {
		t.Fatalf("error divergence: interp=%v compiled=%v", errI, errC)
	}
	if errI != nil {
		return
	}
	if eq, diff := sInterp.Equal(sComp); !eq {
		t.Errorf("state divergence at %s\nprogram:\n%s", diff, src)
	}
}

const compileRegs = `
RESOURCE {
  REGISTER int r0; REGISTER int r1; REGISTER int r2; REGISTER int r3;
  REGISTER bit[8] small;
  REGISTER bit[40] wide;
  DATA_MEMORY int mem[32];
}
`

func TestCompiledMatchesInterpreterBasics(t *testing.T) {
	bodies := []string{
		`r0 = 1 + 2 * 3;`,
		`int i; for (i = 0; i < 10; i++) { r0 += i; } r1 = r0 >> 1;`,
		`r0 = -5; r1 = r0 / 2; r2 = r0 % 3; r3 = abs(r0);`,
		`small = 250; small += 10; r0 = small;`,
		`wide = 0xffffffffff; wide = wide + 1; r0 = wide == 0;`,
		`int i = 0; while (i < 8) { mem[i] = i * i; i++; } r0 = mem[7];`,
		`int i = 0; do { i++; if (i == 3) continue; if (i > 6) break; r0 += i; } while (1);`,
		`switch (4) { case 1: r0 = 1; case 4, 5: r0 = 45; break; default: r0 = 9; }`,
		`r0 = 0xabcd; r1 = r0[15..8]; r0[7..0] = 0x12;`,
		`r0 = saturate(300, 8); r1 = sign_extend(0x80, 8); r2 = zero_extend(0xfff, 8);`,
		`r0 = min(3, max(7, 2)); r1 = addsat(0x7fffffff, 1); r2 = subsat(-2147483647, 100);`,
		`r0 = (1 == 1) && (2 > 1) || (3 < 2); r1 = !r0; r2 = ~0;`,
		`r0 = 7; r0 <<= 2; r0 |= 1; r0 ^= 0xf; r0 &= 0xff; r0 >>= 1;`,
		`r0 = bits(0xdeadbeef, 15, 8);`,
		`r0 = 1 ? 10 : 20; r1 = 0 ? 10 : 20;`,
		`if (r0 == 0) { r1 = 1; } else { r1 = 2; }`,
		`return; r0 = 99;`,
	}
	for i, body := range bodies {
		t.Run(fmt.Sprintf("body%d", i), func(t *testing.T) {
			runBoth(t, compileRegs+"\nOPERATION op { BEHAVIOR { "+body+" } }", "op")
		})
	}
}

// TestCompiledMatchesInterpreterRandom generates random straight-line
// arithmetic programs and checks interpreter/compiler equivalence — the
// differential-testing analog of the paper's simulator verification.
func TestCompiledMatchesInterpreterRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	regs := []string{"r0", "r1", "r2", "r3", "small", "wide"}
	binops := []string{"+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%"}
	randExpr := func(depth int) string {
		var gen func(d int) string
		gen = func(d int) string {
			if d == 0 || rng.Intn(3) == 0 {
				switch rng.Intn(3) {
				case 0:
					return fmt.Sprintf("%d", rng.Intn(1000)-500)
				case 1:
					return regs[rng.Intn(len(regs))]
				default:
					return fmt.Sprintf("mem[%d]", rng.Intn(32))
				}
			}
			op := binops[rng.Intn(len(binops))]
			if op == "<<" || op == ">>" {
				return fmt.Sprintf("(%s %s %d)", gen(d-1), op, rng.Intn(16))
			}
			return fmt.Sprintf("(%s %s %s)", gen(d-1), op, gen(d-1))
		}
		return gen(depth)
	}
	for trial := 0; trial < 60; trial++ {
		var body string
		for stmt := 0; stmt < 6; stmt++ {
			switch rng.Intn(3) {
			case 0:
				body += fmt.Sprintf("%s = %s;\n", regs[rng.Intn(len(regs))], randExpr(3))
			case 1:
				body += fmt.Sprintf("mem[%d] = %s;\n", rng.Intn(32), randExpr(2))
			default:
				body += fmt.Sprintf("if (%s > %d) { %s = %s; }\n",
					regs[rng.Intn(len(regs))], rng.Intn(100)-50,
					regs[rng.Intn(len(regs))], randExpr(2))
			}
		}
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			runBoth(t, compileRegs+"\nOPERATION op { BEHAVIOR {\n"+body+"} }", "op")
		})
	}
}

func TestCompiledLabelFolding(t *testing.T) {
	// Labels become constants in compiled mode; verify a decoded operand
	// expression (A[index]) behaves identically.
	src := `
RESOURCE { REGISTER int A[16]; REGISTER int out; }
OPERATION reg {
  DECLARE { LABEL index; }
  CODING { index:0bx[4] }
  EXPRESSION { A[index] }
}
OPERATION use {
  DECLARE { GROUP Src = { reg }; }
  CODING { Src }
  BEHAVIOR { out = Src + 1; Src = 9; }
}
`
	d, perrs := parser.Parse(src, "t")
	if len(perrs) > 0 {
		t.Fatal(perrs[0])
	}
	m, errs := sema.Build("t", d)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	mk := func() *model.Instance {
		in := model.NewInstance(m.Ops["use"])
		child := model.NewInstance(m.Ops["reg"])
		child.Labels["index"] = bitvec.New(5, 4)
		in.Bindings["Src"] = child
		return in
	}
	s1, s2 := model.NewState(m), model.NewState(m)
	_ = s1.WriteElem(m.Resource("A"), 5, bitvec.FromInt(41, 32))
	_ = s2.WriteElem(m.Resource("A"), 5, bitvec.FromInt(41, 32))
	if err := (&Exec{M: m, S: s1}).Run(mk()); err != nil {
		t.Fatal(err)
	}
	if err := RunCompiled(&Exec{M: m, S: s2}, mk()); err != nil {
		t.Fatal(err)
	}
	if eq, diff := s1.Equal(s2); !eq {
		t.Fatalf("divergence at %s", diff)
	}
	out := s1.Read(m.Resource("out"))
	if out.Int() != 42 {
		t.Errorf("out = %d", out.Int())
	}
	v, _ := s1.ReadElem(m.Resource("A"), 5)
	if v.Int() != 9 {
		t.Errorf("write through EXPRESSION lvalue: %d", v.Int())
	}
}

func TestCompiledCondCache(t *testing.T) {
	d, _ := parser.Parse(compileRegs+`OPERATION op { BEHAVIOR { ; } }`, "t")
	m, errs := sema.Build("t", d)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	x := &Exec{M: m, S: model.NewState(m)}
	in := model.NewInstance(m.Ops["op"])
	cond := mustExpr(t, "r0 + 1 > 0")
	for i := 0; i < 3; i++ {
		got, err := x.EvalCondCompiled(in, cond)
		if err != nil || !got {
			t.Fatalf("EvalCondCompiled: %v %v", got, err)
		}
	}
	if len(x.conds) != 1 {
		t.Errorf("condition cache has %d entries, want 1", len(x.conds))
	}
	v, err := x.EvalValueCompiled(in, cond)
	if err != nil || v.Uint() != 1 {
		t.Errorf("EvalValueCompiled: %v %v", v, err)
	}
}

func TestCompiledErrors(t *testing.T) {
	cases := []string{
		`r0 = nosuch;`,
		`nosuchfn(1);`,
		`r0 = mem;`,
	}
	for _, body := range cases {
		d, perrs := parser.Parse(compileRegs+"\nOPERATION op { BEHAVIOR { "+body+" } }", "t")
		if len(perrs) > 0 {
			t.Fatal(perrs[0])
		}
		m, errs := sema.Build("t", d)
		if len(errs) > 0 {
			t.Fatal(errs[0])
		}
		x := &Exec{M: m, S: model.NewState(m)}
		if err := RunCompiled(x, model.NewInstance(m.Ops["op"])); err == nil {
			t.Errorf("compile of %q should fail", body)
		}
	}
}

func TestCompiledRunawayBudget(t *testing.T) {
	d, _ := parser.Parse(compileRegs+`OPERATION op { BEHAVIOR { while (1) { r0 = r0; } } }`, "t")
	m, errs := sema.Build("t", d)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	x := &Exec{M: m, S: model.NewState(m), Budget: 500}
	if err := RunCompiled(x, model.NewInstance(m.Ops["op"])); err == nil {
		t.Error("runaway loop not caught in compiled mode")
	}
}

// TestCompiledBudgetIsPerRun pins that the runaway-loop budget covers one
// behavior run, not a whole simulation: many bounded loops whose iterations
// together exceed the budget must all succeed, as they do interpreted.
func TestCompiledBudgetIsPerRun(t *testing.T) {
	d, _ := parser.Parse(compileRegs+`OPERATION op { BEHAVIOR { int i; for (i = 0; i < 10; i++) { r0 += 1; } } }`, "t")
	m, errs := sema.Build("t", d)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	x := &Exec{M: m, S: model.NewState(m), Budget: 50}
	in := model.NewInstance(m.Ops["op"])
	for run := 0; run < 20; run++ {
		if err := RunCompiled(x, in); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	if got := x.S.Read(m.Resource("r0")).Int(); got != 200 {
		t.Errorf("r0 = %d after 20 runs, want 200", got)
	}
}

// signednessBodies is the adversarial regression table from the
// sub-64-bit sign-extension/truncation audit. Every case leans on a place
// where an engine could split from the others: mixed signed/unsigned
// comparisons with the top bit set, shift counts at and beyond the
// operand width (and the &63 count mask), arithmetic right-shift sign
// fill, assignment truncation into narrow registers, signed
// division/remainder edges (MinInt/-1, /0), saturation and extension
// builtins at their boundary widths, and read-modify-write slice lvalues
// on sub-word registers. The bodies read and write only the resources of
// compileRegs. TestSignednessBodiesOnGosim runs them through gosim's IR
// and native runner as well.
var signednessBodies = []string{
	// Mixed signed/unsigned comparison, top bit set: bit[8] 0xff is
	// 255, int -1 sign-extends; they must never compare equal.
	`small = 0xff; r0 = 0 - 1; r1 = small > r0; r2 = r0 < small; r3 = small == r0;`,
	// Unsigned/unsigned comparison stays unsigned even at top-bit.
	`unsigned a = 0x80000000; unsigned b = 1; r0 = a > b; r1 = a < b; r2 = min(a, b); r3 = max(a, b);`,
	// Shift counts at and beyond the operand width; the dialect masks
	// the count with &63, so x << 64 is x << 0.
	`small = 0x80; r0 = small >> 9; r1 = small << 8; r2 = small >> 7;`,
	`r0 = 1; r1 = r0 << 64; r2 = r0 >> 64; r3 = r0 << 63;`,
	// Arithmetic right shift must sign-fill, including full-width counts.
	`r0 = 0 - 8; r1 = r0 >> 1; r2 = r0 >> 63; r3 = r0 >> 31;`,
	// Assignment truncation: wide values chopped into narrow registers,
	// then read back with the register's own signedness.
	`r0 = 0x12345; small = r0; r1 = small; wide = 0xffffffffff; r2 = wide; r3 = wide >> 32;`,
	// Signed division/remainder edges: MinInt/-1 and divide-by-zero in
	// both signedness worlds.
	`r0 = 1 << 31; r1 = 0 - 1; r2 = r0 / r1; r3 = r0 % r1;`,
	`r0 = 5 / 0; r1 = (0 - 5) / 0; r2 = 5 % 0; r3 = (0 - 5) % 0;`,
	`unsigned u = 7; unsigned z = 0; r0 = u / z; r1 = u % z;`,
	// Saturation and extension builtins at boundary widths.
	`r0 = saturate(0 - 300, 8); r1 = saturate(127, 8); r2 = saturate(128, 8); r3 = saturate(0 - 128, 8);`,
	`r0 = sign_extend(0xff, 8); r1 = sign_extend(0x7f, 8); r2 = zero_extend(0xffffffff, 16); r3 = sign_extend(0x8000, 16);`,
	`small = 200; r0 = addsat(small, small); r1 = subsat(small, 0xff); wide = 0x7fffffffff; r2 = addsat(wide, 1);`,
	// min/max compare the raw operand widths: bit[8] 0x80 against a
	// negative int exercises the signed-compare path without widening.
	`small = 0x80; r0 = 0 - 1; r1 = min(small, r0); r2 = max(small, r0); r3 = min(small, small);`,
	// Unary negate/complement inside a narrow register wrap at its width.
	`small = 1; small = 0 - small; r0 = small; small = ~small; r1 = small;`,
	// Compound shifts truncate at the register width on every step.
	`small = 0xf0; small <<= 4; r0 = small; small = 0x80; small >>= 1; r1 = small;`,
	// Slice lvalue read-modify-write on a sub-word register.
	`small = 0; small[7..4] = 0xf; r0 = small; small[3..0] = small[7..4]; r1 = small;`,
	// bits() is an unsigned field extract regardless of source sign.
	`r0 = 0 - 1; r1 = bits(r0, 31, 24); r2 = bits(0xdeadbeef, 31, 28); r3 = bits(0xff, 3, 3);`,
	// Narrow locals: declaration initializers truncate like assignments.
	`bit[4] n = 0xff; r0 = n; int s = n - 16; r1 = s; bool b2 = 5; r2 = b2;`,
	// 64-bit long edges: overflow wrap and full-width saturating ops.
	`long l = 1; l <<= 62; l *= 2; r0 = l < 0; l = addsat(l, 0 - 1); r1 = l < 0;`,
	// Mixed-width multiply then narrow store: high bits must drop the
	// same way in both engines.
	`wide = 0xfffffffff; r0 = wide * wide; small = wide * 3; r1 = small;`,
}

// TestCompiledMatchesInterpreterSignedness runs signednessBodies through
// both behavior engines.
func TestCompiledMatchesInterpreterSignedness(t *testing.T) {
	for i, body := range signednessBodies {
		t.Run(fmt.Sprintf("adv%d", i), func(t *testing.T) {
			runBoth(t, compileRegs+"\nOPERATION op { BEHAVIOR { "+body+" } }", "op")
		})
	}
}

// runTimeTypedBodies lean on values whose type depends on run-time data —
// ?: and min/max over operands of different widths or signedness — and
// on the lvalue shapes only the compiled engine's IR composes: bit ranges
// and bit selects of memory elements, locals and registers.
var runTimeTypedBodies = []string{
	`r0 = 0 - 1; small = 0x80; r1 = (r0 > 0 ? small : r0) + 1; r2 = -(r0 ? small : wide); r3 = (r0 ? small : r0) >> 4;`,
	`r0 = 0 - 1; small = 0x80; int x = r0 < 0 ? small : r0; r1 = x; bit[4] n = r0 ? wide : small; r2 = n;`,
	`small = 0x80; r0 = 0 - 1; r1 = min(small, r0) >> 1; r2 = max(small, wide) * 2; long q = min(small, r0); r3 = q < 0;`,
	`small = 0x80; wide = 5; r0 = min(max(small, wide), 0 - 3) + abs(wide ? small : r1); r1 = addsat(small ? r0 : small, 0x7fffffff);`,
	`r0 = 0 - 5; print("values", r0 ? small : r0, min(small, r0), 7);`,
	`r0 = 12; r1 = r0[2]; r0[0] = 1; r2 = r0; r0[40] = 1; r3 = r0[0 - 1];`,
	`wide = 0xff00ff00ff; r0 = bits(wide, 39, 32); wide[3..0] = 0xa; mem[3] = 7; mem[3][1..0] = 2; r1 = mem[3]; mem[40] = 1; r2 = mem[40];`,
	`int i = 0x1234; i[15..8] = 0xff; r0 = i; int j = 3; r1 = r0[j]; r0[j] = 0; r2 = r0;`,
	`r0 = 0xabcd; int hi = 11; int lo = 4; r1 = r0[hi..lo]; r0[hi..lo] = 0; r2 = r0;`,
}

// TestCompiledMatchesInterpreterRunTimeTypes runs runTimeTypedBodies on
// both behavior engines.
func TestCompiledMatchesInterpreterRunTimeTypes(t *testing.T) {
	for i, body := range runTimeTypedBodies {
		t.Run(fmt.Sprintf("rt%d", i), func(t *testing.T) {
			runBoth(t, compileRegs+"\nOPERATION op { BEHAVIOR { "+body+" } }", "op")
		})
	}
}

// TestLoweringRefusesRunTimeWidths pins the one class the IR leaves to the
// interpreter: a bit range whose bounds are run-time values has a
// run-time width, so lowering fails with ErrNotLowered (and RunCompiled,
// checked above, interprets the behavior instead).
func TestLoweringRefusesRunTimeWidths(t *testing.T) {
	d, perrs := parser.Parse(compileRegs+"OPERATION op { BEHAVIOR { int hi = 7; r1 = r0[hi..0]; } }", "t")
	if len(perrs) > 0 {
		t.Fatal(perrs[0])
	}
	m, errs := sema.Build("t", d)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if _, _, err := (&Lowering{M: m}).Body(model.NewInstance(m.Ops["op"])); !errors.Is(err, ErrNotLowered) {
		t.Fatalf("lowering a run-time bit range: %v, want ErrNotLowered", err)
	}
}
