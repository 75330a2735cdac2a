package sim

import (
	"sync"
	"testing"
)

// artifactProg is the workload used by the artifact tests: R1 = 15, R2 = 7.
var artifactProg = []uint64{
	tADDI(1, 5),
	tADDI(2, 7),
	tADDI(1, 10),
	tST(1, 3),
	tHALT,
}

func newArtifactSim(t *testing.T, a *Artifact, prog []uint64) *Simulator {
	t.Helper()
	s := NewFromArtifact(a)
	if err := s.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if err := s.LoadProgram("pmem", 0, prog); err != nil {
		t.Fatalf("load: %v", err)
	}
	return s
}

func checkArtifactRun(t *testing.T, s *Simulator) {
	t.Helper()
	n, err := s.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Halted() {
		t.Fatalf("not halted after %d steps", n)
	}
	if reg(t, s, 1) != 15 || reg(t, s, 2) != 7 {
		t.Errorf("R1=%d R2=%d, want 15 7", reg(t, s, 1), reg(t, s, 2))
	}
	if v, err := s.Mem("dmem", 3); err != nil || v.Int() != 15 {
		t.Errorf("dmem[3] = %v (%v), want 15", v.Int(), err)
	}
}

func TestArtifactMatchesStandalone(t *testing.T) {
	m := buildModel(t, tiny16)
	for _, name := range []string{"interpretive", "compiled", "compiled+prebound"} {
		mode, _ := ParseMode(name)
		t.Run(name, func(t *testing.T) {
			ref := newSim(t, mode, artifactProg)
			nRef, err := ref.Run(100)
			if err != nil {
				t.Fatal(err)
			}

			a := NewArtifact(m, mode)
			if err := a.Prewarm(artifactProg); err != nil {
				t.Fatal(err)
			}
			s := newArtifactSim(t, a, artifactProg)
			n, err := s.Run(100)
			if err != nil {
				t.Fatal(err)
			}
			if n != nRef {
				t.Errorf("steps = %d, standalone ran %d", n, nRef)
			}
			checkArtifactRun(t, ref)
			if reg(t, s, 1) != reg(t, ref, 1) || reg(t, s, 2) != reg(t, ref, 2) {
				t.Errorf("artifact sim diverged: R1=%d R2=%d vs R1=%d R2=%d",
					reg(t, s, 1), reg(t, s, 2), reg(t, ref, 1), reg(t, ref, 2))
			}
			if pr, ps := ref.Profile(), s.Profile(); pr.Steps != ps.Steps || pr.Retired != ps.Retired {
				t.Errorf("profiles diverged: %+v vs %+v", pr, ps)
			}
		})
	}
}

func TestArtifactPrewarmEliminatesJobDecodes(t *testing.T) {
	m := buildModel(t, tiny16)
	for _, name := range []string{"compiled", "compiled+prebound"} {
		mode, _ := ParseMode(name)
		t.Run(name, func(t *testing.T) {
			a := NewArtifact(m, mode)
			if err := a.Prewarm(artifactProg); err != nil {
				t.Fatal(err)
			}
			if a.Decodes() == 0 || a.CachedWords() == 0 {
				t.Fatalf("prewarm did nothing: decodes=%d cached=%d", a.Decodes(), a.CachedWords())
			}
			s := newArtifactSim(t, a, artifactProg)
			checkArtifactRun(t, s)
			p := s.Profile()
			if p.Decodes != 0 {
				t.Errorf("job performed %d decodes, want 0 (all pre-warmed)", p.Decodes)
			}
			if p.SharedDecodeHits == 0 || p.SharedDecodeHits != p.DecodeHits {
				t.Errorf("shared hits = %d of %d decode hits, want all shared", p.SharedDecodeHits, p.DecodeHits)
			}
			if a.Compiles() == 0 {
				t.Error("compiled artifact compiled nothing")
			}
			if p.Compiles != 0 {
				t.Errorf("job compiled %d closures at run time, want 0", p.Compiles)
			}
		})
	}
}

func TestArtifactOverlayDecodesStayPrivate(t *testing.T) {
	m := buildModel(t, tiny16)
	a := NewArtifact(m, Compiled)
	// Prewarm everything except the final HALT word.
	if err := a.Prewarm(artifactProg[:len(artifactProg)-1]); err != nil {
		t.Fatal(err)
	}
	cached := a.CachedWords()
	s1 := newArtifactSim(t, a, artifactProg)
	s2 := newArtifactSim(t, a, artifactProg)
	checkArtifactRun(t, s1)
	checkArtifactRun(t, s2)
	// Each simulator decodes the missing word once, privately; the shared
	// cache is frozen and must not grow.
	if p := s1.Profile(); p.Decodes != 1 {
		t.Errorf("sim1 decodes = %d, want 1 (only the un-prewarmed word)", p.Decodes)
	}
	if p := s2.Profile(); p.Decodes != 1 {
		t.Errorf("sim2 decodes = %d, want 1", p.Decodes)
	}
	if a.CachedWords() != cached {
		t.Errorf("shared cache grew from %d to %d entries after freeze", cached, a.CachedWords())
	}
}

func TestArtifactPrewarmAfterFreezeFails(t *testing.T) {
	m := buildModel(t, tiny16)
	a := NewArtifact(m, Compiled)
	_ = NewFromArtifact(a)
	if err := a.Prewarm(artifactProg); err == nil {
		t.Fatal("Prewarm after NewFromArtifact should fail")
	}
}

// TestArtifactConcurrentSims is the -race test for shared artifacts: many
// simulators off one artifact run concurrently, in both compiled modes,
// with one instruction word left out of the pre-warm set so the private
// decode-overlay path is exercised concurrently too.
func TestArtifactConcurrentSims(t *testing.T) {
	m := buildModel(t, tiny16)
	for _, name := range []string{"compiled", "compiled+prebound"} {
		mode, _ := ParseMode(name)
		t.Run(name, func(t *testing.T) {
			a := NewArtifact(m, mode)
			if err := a.Prewarm(artifactProg[:len(artifactProg)-1]); err != nil {
				t.Fatal(err)
			}
			const workers = 8
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s := NewFromArtifact(a)
					if err := s.Reset(); err != nil {
						errs <- err
						return
					}
					if err := s.LoadProgram("pmem", 0, artifactProg); err != nil {
						errs <- err
						return
					}
					if _, err := s.Run(100); err != nil {
						errs <- err
						return
					}
					if v, err := s.Mem("R", 1); err != nil || v.Int() != 15 {
						errs <- err
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
		})
	}
}
