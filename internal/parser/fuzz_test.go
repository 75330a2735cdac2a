package parser_test

import (
	"testing"

	"golisa/internal/model"
	"golisa/internal/parser"
	"golisa/internal/sema"
)

// FuzzParseModel feeds arbitrary LISA source through the parser and sema
// and allocates the machine state of every model they accept. Malformed
// input must come back as errors: no panic, no hang, and no allocation
// beyond model.MaxStateElems, whatever the declared codings and memories.
// The seed corpus in testdata/fuzz/FuzzParseModel holds the coding-repeat
// and memory-size reproducers that used to exhaust memory.
func FuzzParseModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		d, errs := parser.Parse(src, "fuzz.lisa")
		if len(errs) > 0 {
			return
		}
		m, errs := sema.Build("fuzz", d)
		if len(errs) > 0 {
			return
		}
		model.NewState(m)
	})
}
