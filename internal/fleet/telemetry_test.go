package fleet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"golisa/internal/core"
	"golisa/internal/sim"
)

// teleEvent is one recorded telemetry callback, flattened for assertions.
type teleEvent struct {
	kind   string
	job    int
	worker int
	name   string
	at     time.Duration
	from   time.Duration
	to     time.Duration
	info   BatchInfo
	span   Span
	sum    *Summary
}

// recTele records every telemetry event in call order. fleet.Run serializes
// one batch's events, so no locking is needed.
type recTele struct {
	events []teleEvent
}

func (r *recTele) OnBatchStart(info BatchInfo) {
	r.events = append(r.events, teleEvent{kind: "batch-start", info: info})
}
func (r *recTele) OnPhase(phase string, from, to time.Duration) {
	r.events = append(r.events, teleEvent{kind: "phase", name: phase, from: from, to: to})
}
func (r *recTele) OnJobQueued(job int, name string, at time.Duration) {
	r.events = append(r.events, teleEvent{kind: "queued", job: job, name: name, at: at})
}
func (r *recTele) OnJobStart(job, worker int, name string, at time.Duration) {
	r.events = append(r.events, teleEvent{kind: "start", job: job, worker: worker, name: name, at: at})
}
func (r *recTele) OnJobFinish(span Span) {
	r.events = append(r.events, teleEvent{kind: "finish", job: span.Job, worker: span.Worker, name: span.Name, span: span})
}
func (r *recTele) OnBatchEnd(sum *Summary) {
	r.events = append(r.events, teleEvent{kind: "batch-end", sum: sum})
}

// TestFleetTelemetryEventOrder runs an instrumented batch and checks the
// documented event protocol: batch start, the build phases, every job
// queued, then start/finish pairs with consistent spans, then batch end.
func TestFleetTelemetryEventOrder(t *testing.T) {
	mc, src := loadFIR(t)
	const nJobs = 6
	const workers = 2
	rec := &recTele{}
	sum, err := Run(mc, sim.Compiled, firJobs(src, nJobs), Options{Workers: workers, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("failed jobs: %+v", sum.Results)
	}
	evs := rec.events
	if len(evs) != 1+2+nJobs+2*nJobs+1 {
		t.Fatalf("got %d events, want %d: %+v", len(evs), 1+2+nJobs+2*nJobs+1, evs)
	}

	// Batch start first, with the real topology.
	if evs[0].kind != "batch-start" {
		t.Fatalf("first event %q, want batch-start", evs[0].kind)
	}
	info := evs[0].info
	if info.Model != "simple16" || info.Jobs != nJobs || info.Workers != workers || info.Mode != sim.Compiled.String() {
		t.Errorf("BatchInfo = %+v", info)
	}

	// Build phases in order, each a forward interval.
	for i, want := range []string{"assemble", "prewarm"} {
		e := evs[1+i]
		if e.kind != "phase" || e.name != want {
			t.Fatalf("event %d = %q %q, want phase %q", 1+i, e.kind, e.name, want)
		}
		if e.from > e.to {
			t.Errorf("phase %s runs backwards: %v..%v", want, e.from, e.to)
		}
	}

	// Every job queued, in manifest order, before any start.
	for i := 0; i < nJobs; i++ {
		e := evs[3+i]
		if e.kind != "queued" || e.job != i {
			t.Fatalf("event %d = %+v, want queued job %d", 3+i, e, i)
		}
		if e.name != jobLabel(i, Job{}) {
			t.Errorf("queued name = %q, want %q", e.name, jobLabel(i, Job{}))
		}
	}

	// Interleaved start/finish pairs: one each per job, start before its
	// finish, consistent worker ids, monotonic span fields.
	started := map[int]teleEvent{}
	finished := map[int]bool{}
	for _, e := range evs[3+nJobs : len(evs)-1] {
		switch e.kind {
		case "start":
			if _, dup := started[e.job]; dup {
				t.Errorf("job %d started twice", e.job)
			}
			if e.worker < 0 || e.worker >= workers {
				t.Errorf("job %d on worker %d, want 0..%d", e.job, e.worker, workers-1)
			}
			started[e.job] = e
		case "finish":
			st, ok := started[e.job]
			if !ok {
				t.Fatalf("job %d finished before starting", e.job)
			}
			if finished[e.job] {
				t.Errorf("job %d finished twice", e.job)
			}
			finished[e.job] = true
			sp := e.span
			if sp.Worker != st.worker {
				t.Errorf("job %d: finish worker %d != start worker %d", e.job, sp.Worker, st.worker)
			}
			if sp.Queued > sp.Started || sp.Started > sp.Finished {
				t.Errorf("job %d span not monotonic: %+v", e.job, sp)
			}
			if sp.Started != st.at {
				t.Errorf("job %d: span.Started %v != start event at %v", e.job, sp.Started, st.at)
			}
			if sp.Result == nil {
				t.Fatalf("job %d: finish span carries no result", e.job)
			}
			if sp.Result.Worker != sp.Worker || sp.Result.RunFor != sp.Finished-sp.Started {
				t.Errorf("job %d: result timing inconsistent with span: %+v vs %+v", e.job, sp.Result, sp)
			}
			if !sp.Halted || sp.Steps == 0 || sp.Steps != sp.Result.Steps {
				t.Errorf("job %d: span outcome %+v inconsistent", e.job, sp)
			}
		default:
			t.Fatalf("unexpected %q amid the run phase", e.kind)
		}
	}
	if len(finished) != nJobs {
		t.Errorf("finished %d jobs, want %d", len(finished), nJobs)
	}

	// Batch end last, with the fully computed summary.
	last := evs[len(evs)-1]
	if last.kind != "batch-end" || last.sum != sum {
		t.Fatalf("last event = %+v, want batch-end with the returned summary", last)
	}
	lat := sum.Latency
	if lat.Max == 0 || lat.P50 > lat.P90 || lat.P90 > lat.P99 || lat.P99 > lat.Max {
		t.Errorf("latency quantiles not ordered: %+v", lat)
	}
	if lat.JobsPerSec <= 0 || lat.Utilization <= 0 || lat.Utilization > 1 {
		t.Errorf("throughput stats out of range: %+v", lat)
	}
	for i, r := range sum.Results {
		if r.RunFor <= 0 {
			t.Errorf("result %d has no run time: %+v", i, r)
		}
	}
}

// TestTeleFanout checks the fanout algebra: nils vanish, single sinks pass
// through untouched, nested fanouts flatten, and events reach every sink.
func TestTeleFanout(t *testing.T) {
	if TeleFanout() != nil || TeleFanout(nil, nil) != nil {
		t.Error("empty fanout must be nil (the batch fast path)")
	}
	a, b, c := &recTele{}, &recTele{}, &recTele{}
	if got := TeleFanout(nil, a, nil); got != Telemetry(a) {
		t.Errorf("single-sink fanout = %T, want the sink itself", got)
	}
	m, ok := TeleFanout(a, TeleFanout(b, c)).(MultiTelemetry)
	if !ok || len(m) != 3 {
		t.Fatalf("nested fanout = %#v, want flat MultiTelemetry of 3", m)
	}
	m.OnJobQueued(7, "x", time.Second)
	m.OnBatchEnd(&Summary{})
	for i, r := range []*recTele{a, b, c} {
		if len(r.events) != 2 || r.events[0].kind != "queued" || r.events[0].job != 7 || r.events[1].kind != "batch-end" {
			t.Errorf("sink %d saw %+v", i, r.events)
		}
	}
}

// chat16 is a minimal machine whose SAY instruction emits one print line,
// for exercising the per-job print cap.
const chat16 = `
RESOURCE {
  PROGRAM_COUNTER int pc LATCH;
  CONTROL_REGISTER bit[16] ir;
  REGISTER int n;
  REGISTER bit halt;
  PROGRAM_MEMORY bit[16] pmem[64];
}

OPERATION main {
  ACTIVATION { if (!halt) { fetch } }
}

OPERATION fetch {
  BEHAVIOR {
    ir = pmem[pc];
    pc = pc + 1;
    decode();
  }
}

OPERATION decode {
  DECLARE { GROUP Insn = { say; halt_op }; }
  CODING { ir == Insn }
  ACTIVATION { Insn }
}

OPERATION say {
  CODING { 0b0000 0bx[12] }
  SYNTAX { "SAY" }
  BEHAVIOR { n = n + 1; print("line", n); }
}

OPERATION halt_op {
  CODING { 0b1111 0bx[12] }
  SYNTAX { "HALT" }
  BEHAVIOR { halt = 1; }
}
`

// TestFleetMaxPrints checks the per-job print cap: default keeps everything
// under DefaultMaxPrints, a small cap truncates and marks the result, and a
// negative cap disables the limit.
func TestFleetMaxPrints(t *testing.T) {
	mc, err := core.LoadMachine("chat16", chat16)
	if err != nil {
		t.Fatal(err)
	}
	prog := strings.Repeat("SAY\n", 8) + "HALT\n"
	jobs := []Job{{Name: "chatty", Source: prog}}

	run := func(maxPrints int) Result {
		t.Helper()
		sum, err := Run(mc, sim.Compiled, jobs, Options{Workers: 1, MaxSteps: 100, MaxPrints: maxPrints})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Failed != 0 {
			t.Fatalf("failed: %+v", sum.Results)
		}
		return sum.Results[0]
	}

	if r := run(0); len(r.Prints) != 8 || r.PrintsTruncated {
		t.Errorf("default cap: %d prints truncated=%v, want all 8 kept", len(r.Prints), r.PrintsTruncated)
	} else if r.Prints[0] != "line 1" || r.Prints[7] != "line 8" {
		t.Errorf("print content wrong: %v", r.Prints)
	}
	if r := run(3); len(r.Prints) != 3 || !r.PrintsTruncated {
		t.Errorf("cap 3: %d prints truncated=%v, want 3 truncated", len(r.Prints), r.PrintsTruncated)
	} else if r.Prints[2] != "line 3" {
		t.Errorf("cap kept wrong lines: %v", r.Prints)
	}
	if r := run(-1); len(r.Prints) != 8 || r.PrintsTruncated {
		t.Errorf("unlimited: %d prints truncated=%v, want all 8", len(r.Prints), r.PrintsTruncated)
	}
}

// TestChromeSpans renders an instrumented batch as a Chrome trace and
// checks the lanes: metadata names for the batch lane and every worker,
// build phases on the batch lane, one job slice per job on a worker lane,
// the error surfaced in the failing job's args, and the closing instant.
func TestChromeSpans(t *testing.T) {
	mc, src := loadFIR(t)
	jobs := []Job{
		{Name: "ok-0", Source: src},
		{Name: "ok-1", Source: src},
		{Name: "broken"}, // no source -> per-job error
		{Name: "ok-2", Source: src},
	}
	cs := NewChromeSpans()
	if _, err := Run(mc, sim.Compiled, jobs, Options{Workers: 2, Telemetry: cs}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	laneNames := map[string]bool{}
	phases := map[string]bool{}
	jobSlices := 0
	brokenHasErr := false
	doneInstant := false
	for _, e := range doc.TraceEvents {
		name, _ := e["name"].(string)
		ph, _ := e["ph"].(string)
		cat, _ := e["cat"].(string)
		args, _ := e["args"].(map[string]any)
		switch {
		case ph == "M" && name == "thread_name":
			laneNames[args["name"].(string)] = true
		case ph == "X" && cat == "build":
			phases[name] = true
			if tid, _ := e["tid"].(float64); tid != 0 {
				t.Errorf("build phase %q on lane %v, want batch lane 0", name, e["tid"])
			}
		case ph == "X" && cat == "job":
			jobSlices++
			tid, _ := e["tid"].(float64)
			if tid < 1 || tid > 2 {
				t.Errorf("job %q on lane %v, want a worker lane 1..2", name, e["tid"])
			}
			if name == "broken" {
				_, brokenHasErr = args["error"]
			}
		case ph == "i" && name == "batch done":
			doneInstant = true
			if _, ok := args["jobs_per_sec"]; !ok {
				t.Errorf("batch done instant lacks throughput args: %v", args)
			}
		}
	}
	for _, want := range []string{"batch", "worker 0", "worker 1"} {
		if !laneNames[want] {
			t.Errorf("missing lane %q (have %v)", want, laneNames)
		}
	}
	if !phases["assemble"] || !phases["prewarm"] {
		t.Errorf("missing build phase slices: %v", phases)
	}
	if jobSlices != len(jobs) {
		t.Errorf("%d job slices, want %d", jobSlices, len(jobs))
	}
	if !brokenHasErr {
		t.Error("failing job's slice has no error arg")
	}
	if !doneInstant {
		t.Error("no 'batch done' instant")
	}
}
