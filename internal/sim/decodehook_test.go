package sim

import (
	"testing"

	"golisa/internal/model"
)

// TestOnDecodedFiresEveryMode: the decode-side hook sees every root
// decode in every engine, on cache hits as much as on misses, and always
// with a fully bound instance. This is the seam the coverage collector's
// MarkDecoded hangs off.
func TestOnDecodedFiresEveryMode(t *testing.T) {
	prog := []uint64{
		tADDI(1, 5),
		tADDI(2, 7),
		tADDI(1, 5), // same word again: served from the decode cache
		tNOP,
		tHALT,
	}
	fires := map[string]int{}
	for _, name := range []string{"interpretive", "compiled", "compiled+prebound"} {
		mode, _ := ParseMode(name)
		t.Run(name, func(t *testing.T) {
			s := newSim(t, mode, prog)
			var seen []string
			s.OnDecoded = func(in *model.Instance) {
				if in == nil || in.Op == nil {
					t.Fatal("OnDecoded called with unbound instance")
				}
				seen = append(seen, in.Op.Name)
			}
			if _, err := s.Run(100); err != nil {
				t.Fatal(err)
			}
			if !s.Halted() {
				t.Fatal("program did not halt")
			}
			// One fire per fetched word (the fetch in the halt shadow
			// included), cache hit or miss alike — at least each program
			// word once.
			if len(seen) < len(prog) {
				t.Fatalf("OnDecoded fired %d times (%v), want >= %d", len(seen), seen, len(prog))
			}
			for _, name := range seen {
				if name != "decode" {
					t.Fatalf("root decode reported op %q, want decode", name)
				}
			}
			fires[name] = len(seen)
		})
	}
	// The engines share the decode seam: identical fire counts.
	if fires["interpretive"] != fires["compiled"] || fires["compiled"] != fires["compiled+prebound"] {
		t.Fatalf("modes disagree on decode count: %v", fires)
	}
}

// TestOnDecodedNilIsFree: leaving the hook nil must not change behavior.
func TestOnDecodedNilIsFree(t *testing.T) {
	prog := []uint64{tADDI(1, 5), tHALT}
	s := newSim(t, Compiled, prog)
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := reg(t, s, 1); got != 5 {
		t.Fatalf("R1 = %d, want 5", got)
	}
}
