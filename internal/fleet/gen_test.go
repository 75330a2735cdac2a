package fleet

import (
	"fmt"
	"os/exec"
	"testing"

	"golisa/internal/sim"
)

// genProgram mints a distinct simple16 program per seed — distinct in its
// assembled words, not just its text, because the runner cache is keyed
// on (model hash, program hash) and two sources encoding the same words
// share one cache entry.
func genProgram(seed int) string {
	return fmt.Sprintf("LDI A1, %d\nLDI A2, 2\nADD A3, A1, A2\nNOP\nHALT\n", seed+1)
}

// TestFleetGeneratedBuildsOncePerProgram runs a generated-mode batch of
// many jobs over few distinct programs across a worker pool and asserts
// the cache built each (model, program) pair exactly once — the counter
// is the proof, and the -race runs in CI make the once-per-key discipline
// a data-race check too.
func TestFleetGeneratedBuildsOncePerProgram(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	mc, _ := loadFIR(t)
	const distinct = 3
	var jobs []Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, Job{Name: fmt.Sprintf("job%d", i), Source: genProgram(i % distinct)})
	}
	sum, err := Run(mc, sim.Generated, jobs, Options{Workers: 8, GenCache: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("failed jobs: %+v", sum.Results)
	}
	if sum.RunnerBuilds != distinct {
		t.Errorf("RunnerBuilds = %d, want exactly %d (one per distinct program)", sum.RunnerBuilds, distinct)
	}
	if sum.GenNative != len(jobs) || sum.GenFallback != 0 {
		t.Errorf("GenNative = %d, GenFallback = %d, want %d native and 0 fallbacks",
			sum.GenNative, sum.GenFallback, len(jobs))
	}
	for _, r := range sum.Results {
		if !r.Halted || r.Err != "" {
			t.Errorf("job %s: halted=%v err=%q", r.Name, r.Halted, r.Err)
		}
		if !r.GenNative {
			t.Errorf("job %s ran on the IR fallback: %s", r.Name, r.GenFallback)
		}
	}
}

// TestFleetGeneratedFallbackWithoutToolchain empties PATH so `go` cannot
// be found: every generated-mode job must complete on the in-process IR
// interpreter (correct results, a recorded fallback reason) with zero
// runner builds — the generated tier degrades, it never fails the batch.
func TestFleetGeneratedFallbackWithoutToolchain(t *testing.T) {
	t.Setenv("PATH", t.TempDir())
	mc, _ := loadFIR(t)
	jobs := []Job{
		{Name: "a", Source: genProgram(0)},
		{Name: "b", Source: genProgram(1)},
	}
	sum, err := Run(mc, sim.Generated, jobs, Options{Workers: 2, GenCache: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("failed jobs: %+v", sum.Results)
	}
	if sum.RunnerBuilds != 0 {
		t.Errorf("RunnerBuilds = %d, want 0 without a toolchain", sum.RunnerBuilds)
	}
	if sum.GenNative != 0 || sum.GenFallback != len(jobs) {
		t.Errorf("GenNative = %d, GenFallback = %d, want 0 native and %d fallbacks",
			sum.GenNative, sum.GenFallback, len(jobs))
	}
	for _, r := range sum.Results {
		if !r.Halted || r.Err != "" {
			t.Errorf("job %s: halted=%v err=%q", r.Name, r.Halted, r.Err)
		}
		if r.GenFallback == "" {
			t.Errorf("job %s: no fallback reason recorded", r.Name)
		}
	}
}

// TestFleetGeneratedMatchesClassic cross-checks the generated tier inside
// the fleet against the same batch on the in-process compiled engine: same
// step counts per job, job for job.
func TestFleetGeneratedMatchesClassic(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	mc, src := loadFIR(t)
	jobs := []Job{
		{Name: "fir", Source: src},
		{Name: "p0", Source: genProgram(0)},
	}
	gen, err := Run(mc, sim.Generated, jobs, Options{Workers: 2, GenCache: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	classic, err := Run(mc, sim.Compiled, jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Failed != 0 || classic.Failed != 0 {
		t.Fatalf("failed jobs: gen %+v classic %+v", gen.Results, classic.Results)
	}
	for i := range jobs {
		g, c := gen.Results[i], classic.Results[i]
		if g.Steps != c.Steps || g.Halted != c.Halted {
			t.Errorf("job %s: generated %d steps halted=%v, classic %d steps halted=%v",
				g.Name, g.Steps, g.Halted, c.Steps, c.Halted)
		}
	}
}

// TestFleetGeneratedResidentRunners runs 3 programs × 8 jobs on 2 workers:
// each program is built once, and its runner is started only as often as
// two workers can run it at once — never once per job. When the batch
// returns, every runner has been waited for.
func TestFleetGeneratedResidentRunners(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	mc, _ := loadFIR(t)
	const distinct, perProgram, workers = 3, 8, 2
	var jobs []Job
	for i := 0; i < distinct*perProgram; i++ {
		jobs = append(jobs, Job{Name: fmt.Sprintf("job%d", i), Source: genProgram(i % distinct)})
	}
	sum, err := Run(mc, sim.Generated, jobs, Options{Workers: workers, GenCache: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	assertNoChildren(t)
	if sum.Failed != 0 {
		t.Fatalf("failed jobs: %+v", sum.Results)
	}
	if sum.GenNative != len(jobs) || sum.RunnerBuilds != distinct {
		t.Errorf("GenNative = %d, RunnerBuilds = %d; want %d and %d", sum.GenNative, sum.RunnerBuilds, len(jobs), distinct)
	}
	if sum.RunnerStarts < distinct || sum.RunnerStarts > distinct*workers {
		t.Errorf("RunnerStarts = %d, want %d..%d (one runner per program per concurrent worker)",
			sum.RunnerStarts, distinct, distinct*workers)
	}
}
