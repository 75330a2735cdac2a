package fleet

import (
	"fmt"
	"io"
	"testing"

	"golisa/internal/sim"
)

// BenchmarkFleetScaling runs 64 FIR jobs four ways: a serial baseline where
// every job builds its own simulator from scratch (assemble + decode +
// compile per job), and the fleet with 1, 2, 4 and 8 workers sharing one
// pre-warmed artifact. On a multi-core host the worker variants scale
// near-linearly; every fleet variant additionally asserts that no job
// performed any run-time decode or closure compilation.
//
//	go test ./internal/fleet -bench FleetScaling -benchtime 3x
func BenchmarkFleetScaling(b *testing.B) {
	mc, src := loadFIR(b)
	const nJobs = 64
	jobs := firJobs(src, nJobs)

	b.Run("serial-standalone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < nJobs; j++ {
				s, _, err := mc.AssembleAndLoad(src, sim.Compiled)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(1_000_000); err != nil {
					b.Fatal(err)
				}
				if !s.Halted() {
					b.Fatal("did not halt")
				}
			}
		}
	})

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sum, err := Run(mc, sim.Compiled, jobs, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if sum.Failed != 0 {
					b.Fatalf("failed jobs: %+v", sum.Results)
				}
				// Zero-recompilation acceptance: the shared artifact carries
				// every decode and closure; no job re-does that work.
				if sum.JobDecodes != 0 || sum.JobCompiles != 0 {
					b.Fatalf("jobs re-did shared work: decodes=%d compiles=%d",
						sum.JobDecodes, sum.JobCompiles)
				}
			}
		})
	}
}

// BenchmarkFleetTelemetryOverhead measures what batch telemetry costs:
// the same 64-job batch with telemetry detached (the nil fast path every
// un-instrumented batch takes), with a Metrics collector attached, and
// with the full flag stack (metrics + Chrome spans + a discarding NDJSON
// streamer). The detached variant is the acceptance gate — it must stay
// within noise of BenchmarkFleetScaling/workers-4, since the only
// per-event cost without a sink is a nil check.
//
//	go test ./internal/fleet -bench FleetTelemetryOverhead -benchtime 3x
func BenchmarkFleetTelemetryOverhead(b *testing.B) {
	mc, src := loadFIR(b)
	jobs := firJobs(src, 64)
	const workers = 4

	run := func(b *testing.B, tele Telemetry) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			sum, err := Run(mc, sim.Compiled, jobs, Options{Workers: workers, Telemetry: tele})
			if err != nil {
				b.Fatal(err)
			}
			if sum.Failed != 0 {
				b.Fatalf("failed jobs: %+v", sum.Results)
			}
		}
	}

	b.Run("detached", func(b *testing.B) { run(b, nil) })
	b.Run("metrics", func(b *testing.B) { run(b, NewMetrics()) })
	b.Run("full-stack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sum, err := Run(mc, sim.Compiled, jobs, Options{
				Workers:   workers,
				Telemetry: TeleFanout(NewMetrics(), NewChromeSpans(), NewStreamer(io.Discard)),
			})
			if err != nil {
				b.Fatal(err)
			}
			if sum.Failed != 0 {
				b.Fatalf("failed jobs: %+v", sum.Results)
			}
		}
	})
}
