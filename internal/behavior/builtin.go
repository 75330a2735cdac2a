package behavior

import (
	"fmt"
	"strconv"
	"strings"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
)

// maxBuiltinArgs is the largest fixed arity of a value builtin; the
// engines evaluate arguments into a [maxBuiltinArgs]val on the stack.
const maxBuiltinArgs = 3

// builtin is one function of the behavior language. fn computes a value
// builtin over its evaluated arguments (unused ones are zero); print and
// wait_states take a string and a resource name, so each engine's call
// path handles them and their fn is nil. arity -1 means variadic.
type builtin struct {
	arity int
	fn    func(a, b, c val) val
}

// builtins is the builtin table both behavior engines execute, and the
// name list the IR lowering recognizes.
var builtins = map[string]builtin{
	"abs":         {1, func(a, _, _ val) val { return val{bitvec.Abs(a.v), true} }},
	"min":         {2, func(a, b, _ val) val { return minMax(a, b, false) }},
	"max":         {2, func(a, b, _ val) val { return minMax(a, b, true) }},
	"saturate":    {2, func(a, b, _ val) val { return val{bitvec.SatS(a.v, int(b.v.Int())), true} }},
	"sign_extend": {2, func(a, b, _ val) val { return val{bitvec.SignExtend(a.v.Resize(64), int(b.v.Int())), true} }},
	"zero_extend": {2, func(a, b, _ val) val { return val{bitvec.ZeroExtend(a.v.Resize(64), int(b.v.Int())), false} }},
	"addsat":      {2, func(a, b, _ val) val { return val{bitvec.AddSat(a.v, b.v), true} }},
	"subsat":      {2, func(a, b, _ val) val { return val{bitvec.SubSat(a.v, b.v), true} }},
	"bits":        {3, func(a, b, c val) val { return val{a.v.Slice(int(b.v.Int()), int(c.v.Int())), false} }},
	"print":       {arity: -1},
	"wait_states": {arity: 1},
}

// IsBuiltin reports whether name is a builtin function of the behavior
// language rather than an operation call.
func IsBuiltin(name string) bool {
	_, ok := builtins[name]
	return ok
}

// minMax picks the smaller (or larger) operand, comparing signed unless
// both are unsigned; ties pick a.
func minMax(a, b val, max bool) val {
	cmp := bitvec.CmpS(a.v, b.v)
	if !a.signed && !b.signed {
		cmp = bitvec.CmpU(a.v, b.v)
	}
	if max {
		cmp = -cmp
	}
	if cmp <= 0 {
		return a
	}
	return b
}

// lookupBuiltin returns the builtin c calls, after checking its argument
// count.
func lookupBuiltin(c *ast.CallExpr) (builtin, error) {
	b := builtins[c.Name]
	if b.arity >= 0 && len(c.Args) != b.arity {
		return b, fmt.Errorf("%s: %s expects %d arguments, got %d", c.Pos, c.Name, b.arity, len(c.Args))
	}
	return b, nil
}

// waitStates resolves wait_states(resource): the resource's declared wait
// cycles as a 32-bit unsigned constant.
func waitStates(m *model.Model, c *ast.CallExpr) (val, error) {
	id, ok := c.Args[0].(*ast.Ident)
	if !ok {
		return val{}, fmt.Errorf("%s: wait_states expects a resource name", c.Pos)
	}
	r := m.Resource(id.Name)
	if r == nil {
		return val{}, fmt.Errorf("%s: unknown resource %s", c.Pos, id.Name)
	}
	return val{bitvec.New(uint64(r.Wait), 32), false}, nil
}

// resolvePipeCall resolves a pipeline call such as pipe.shift() or
// pipe.EX.stall(): the pipeline, the stage index (-1 for the whole
// pipeline) and the operation.
func resolvePipeCall(m *model.Model, c *ast.CallExpr) (*model.Pipeline, int, string, error) {
	parts := strings.Split(c.Name, ".")
	p := m.Pipeline(parts[0])
	if p == nil {
		return nil, 0, "", fmt.Errorf("%s: unknown pipeline %s", c.Pos, parts[0])
	}
	stage := -1
	op := parts[len(parts)-1]
	if len(parts) == 3 {
		stage = p.StageIndex(parts[1])
		if stage < 0 {
			return nil, 0, "", fmt.Errorf("%s: unknown stage %s.%s", c.Pos, parts[0], parts[1])
		}
	} else if len(parts) != 2 {
		return nil, 0, "", fmt.Errorf("%s: malformed pipeline call %s", c.Pos, c.Name)
	}
	switch op {
	case "shift", "stall", "flush":
	default:
		return nil, 0, "", fmt.Errorf("%s: unknown pipeline operation %s", c.Pos, op)
	}
	return p, stage, op, nil
}

// formatPrint renders the arguments of print(): string literals verbatim,
// values as signed or unsigned decimals by their signedness, separated
// by spaces. eval evaluates the i-th argument, which is not a string.
func formatPrint(args []ast.Expr, eval func(i int) (val, error)) (string, error) {
	var b []byte
	for i, a := range args {
		if i > 0 {
			b = append(b, ' ')
		}
		if s, ok := a.(*ast.StrLit); ok {
			b = append(b, s.Val...)
			continue
		}
		v, err := eval(i)
		if err != nil {
			return "", err
		}
		if v.signed {
			b = strconv.AppendInt(b, v.v.Int(), 10)
		} else {
			b = strconv.AppendUint(b, v.v.Uint(), 10)
		}
	}
	return string(b), nil
}
