package asm_test

import (
	"testing"

	"golisa/internal/core"
)

// FuzzAssemble feeds arbitrary assembly source to the simple16 assembler.
// Malformed input must come back as an error, and an accepted image must
// fit the model's program memory: no panic, no hang and no image larger
// than memory. The seed corpus in testdata/fuzz/FuzzAssemble holds the
// .space and .org reproducers that used to exhaust memory.
func FuzzAssemble(f *testing.F) {
	mc, err := core.LoadBuiltin("simple16")
	if err != nil {
		f.Fatal(err)
	}
	a, err := mc.NewAssembler()
	if err != nil {
		f.Fatal(err)
	}
	size := mc.Model.Resource("prog_mem").Size
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := a.Assemble(src)
		if err != nil {
			return
		}
		if n := uint64(len(prog.Words)); n > size {
			t.Fatalf("accepted an image of %d words, program memory holds %d", n, size)
		}
	})
}
