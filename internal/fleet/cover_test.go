package fleet

import (
	"testing"

	"golisa/internal/cover"
	"golisa/internal/sim"
)

const haltOnly = `
        HALT
`

const tinyLoop = `
        LDI B1, 1
        LDI A8, 3
loop:   SUB A8, A8, B1
        BNZ A8, loop
        NOP
        NOP
        HALT
`

// TestFleetCoverageUnion is the merge-reconciliation acceptance check:
// with jobs of different shapes running concurrently, the batch summary's
// coverage is exactly the bit-union of the per-job snapshots (run under
// -race in CI, so it also proves the per-job collectors share nothing).
func TestFleetCoverageUnion(t *testing.T) {
	mc, fir := loadFIR(t)
	jobs := []Job{
		{Name: "fir", Source: fir},
		{Name: "halt", Source: haltOnly},
		{Name: "loop", Source: tinyLoop},
		{Name: "fir2", Source: fir},
		{Name: "halt2", Source: haltOnly},
		{Name: "loop2", Source: tinyLoop},
	}
	for _, name := range []string{"interpretive", "compiled", "compiled+prebound"} {
		mode, _ := sim.ParseMode(name)
		t.Run(name, func(t *testing.T) {
			sum, err := Run(mc, mode, jobs, Options{Workers: 4, Cover: true})
			if err != nil {
				t.Fatal(err)
			}
			if sum.Failed != 0 {
				t.Fatalf("failed jobs: %+v", sum.Results)
			}
			if sum.Coverage == nil {
				t.Fatal("summary has no coverage")
			}
			var union *cover.Snapshot
			for i, r := range sum.Results {
				if r.Coverage == nil {
					t.Fatalf("job %d (%s): no coverage snapshot", i, r.Name)
				}
				if r.Coverage.Fingerprint != sum.Coverage.Fingerprint {
					t.Fatalf("job %d: fingerprint %s, summary %s",
						i, r.Coverage.Fingerprint, sum.Coverage.Fingerprint)
				}
				if union == nil {
					union = r.Coverage.Clone()
				} else if err := union.Merge(r.Coverage); err != nil {
					t.Fatal(err)
				}
			}
			if !sum.Coverage.Equal(union) {
				t.Fatalf("summary coverage is not the union of the job snapshots:\nsummary %+v\nunion   %+v",
					sum.Coverage, union)
			}
			// Jobs of different shapes must differ: the halt job cannot
			// cover what FIR covers.
			firCov := sum.Results[0].Coverage.Domain("ops")
			haltCov := sum.Results[1].Coverage.Domain("ops")
			if firCov == nil || haltCov == nil {
				t.Fatal("ops domain missing from job snapshots")
			}
			if haltCov.Covered >= firCov.Covered {
				t.Errorf("halt job covers %d ops, FIR %d — expected strictly fewer",
					haltCov.Covered, firCov.Covered)
			}
		})
	}
}

// TestFleetCoverageOff: without Options.Cover nothing is collected, so
// the summary JSON keeps its pre-coverage shape (omitempty).
func TestFleetCoverageOff(t *testing.T) {
	mc, fir := loadFIR(t)
	sum, err := Run(mc, sim.Compiled, firJobs(fir, 2), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Coverage != nil {
		t.Fatal("coverage collected without opt-in")
	}
	for i, r := range sum.Results {
		if r.Coverage != nil {
			t.Fatalf("job %d has coverage without opt-in", i)
		}
	}
}
