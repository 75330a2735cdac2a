package fleet

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"golisa/internal/sim"
)

// finishCounter counts finished jobs; placed before the Streamer in a
// fanout, its count at the moment a record is written tells how many jobs
// had completed when that record went out.
type finishCounter struct {
	NopTelemetry
	n *atomic.Int32
}

func (c finishCounter) OnJobFinish(Span) { c.n.Add(1) }

// firstWriteWriter buffers all writes and snapshots a counter on the first
// one.
type firstWriteWriter struct {
	buf     bytes.Buffer
	first   func()
	written bool
}

func (w *firstWriteWriter) Write(p []byte) (int, error) {
	if !w.written {
		w.written = true
		if w.first != nil {
			w.first()
		}
	}
	return w.buf.Write(p)
}

// TestFleetStreamDeliversMidBatch is the streaming acceptance check: the
// first NDJSON record must be written while later jobs are still running,
// not after the batch completes. The telemetry fanout calls the finish
// counter before the streamer under the same per-batch lock, so the count
// snapshotted on the first write is exactly the number of jobs done when
// the first record went out the wire.
func TestFleetStreamDeliversMidBatch(t *testing.T) {
	mc, src := loadFIR(t)
	const nJobs = 4
	var finished atomic.Int32
	firstSeen := int32(-1)
	w := &firstWriteWriter{first: func() { firstSeen = finished.Load() }}
	st := NewStreamer(w)
	sum, err := Run(mc, sim.Compiled, firJobs(src, nJobs),
		Options{Workers: 2, Telemetry: TeleFanout(finishCounter{n: &finished}, st)})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("failed jobs: %+v", sum.Results)
	}
	if firstSeen != 1 {
		t.Errorf("first record written when %d jobs had finished, want 1 (mid-batch delivery)", firstSeen)
	}

	lines := strings.Split(strings.TrimSuffix(w.buf.String(), "\n"), "\n")
	if len(lines) != nJobs+1 {
		t.Fatalf("%d NDJSON lines, want %d jobs + 1 summary:\n%s", len(lines), nJobs, w.buf.String())
	}
	seen := map[int]bool{}
	for i, line := range lines {
		var rec StreamRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v: %q", i, err, line)
		}
		if i < nJobs {
			if rec.Type != "job" || rec.Result == nil || rec.Summary != nil {
				t.Errorf("line %d = %+v, want a job record", i, rec)
			}
			if seen[rec.Job] {
				t.Errorf("job %d streamed twice", rec.Job)
			}
			seen[rec.Job] = true
		} else {
			if rec.Type != "summary" || rec.Job != -1 || rec.Summary == nil || rec.Result != nil {
				t.Errorf("last line = %+v, want the summary record", rec)
			}
			if rec.Summary.Results != nil {
				t.Error("summary record must elide per-job results (already streamed)")
			}
			if rec.Summary.Jobs != nJobs || rec.Summary.Latency.Max == 0 {
				t.Errorf("summary = %+v", rec.Summary)
			}
		}
	}
}

// TestFleetStreamNDJSONFraming is the framing golden test: with one worker
// the records come in manifest order, every line (including a failing
// job's) is one self-contained JSON object terminated by exactly one
// newline, and after zeroing the volatile timing fields the failing job's
// record marshals back byte-identically to its expected form.
func TestFleetStreamNDJSONFraming(t *testing.T) {
	mc, src := loadFIR(t)
	jobs := []Job{
		{Name: "good", Source: src},
		{Name: "bad"}, // no source: deterministic per-job error
	}
	var buf bytes.Buffer
	st := NewStreamer(&buf)
	if _, err := Run(mc, sim.Compiled, jobs, Options{Workers: 1, Telemetry: st}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("stream must end in a newline")
	}
	if strings.Contains(out, "\n\n") {
		t.Fatal("stream contains blank lines")
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 2 jobs + 1 summary:\n%s", len(lines), out)
	}

	// With one worker, completion order is manifest order.
	var good, bad, sum StreamRecord
	for i, dst := range []*StreamRecord{&good, &bad, &sum} {
		if err := json.Unmarshal([]byte(lines[i]), dst); err != nil {
			t.Fatalf("line %d: %v: %q", i, err, lines[i])
		}
	}
	if good.Job != 0 || good.Result == nil || !good.Result.Halted || good.Result.Err != "" {
		t.Errorf("good record = %+v", good)
	}
	if bad.Job != 1 || bad.Result == nil || bad.Result.Err == "" || bad.Result.Halted {
		t.Errorf("bad record = %+v", bad)
	}
	if sum.Type != "summary" || sum.Summary == nil || sum.Summary.Failed != 1 {
		t.Errorf("summary record = %+v", sum)
	}

	// Golden comparison of the failing job's line: its only volatile
	// fields are the timings and the trace identity, so zeroing them must
	// reproduce the exact bytes the streamer framed. The identity itself
	// must be well-formed and shared with the batch before it is cleared.
	if len(bad.Result.TraceID) != 32 || len(bad.Result.SpanID) != 16 {
		t.Errorf("bad job trace identity = (%q, %q), want 32/16 hex chars",
			bad.Result.TraceID, bad.Result.SpanID)
	}
	if sum.Summary.TraceID != bad.Result.TraceID {
		t.Errorf("summary trace id %q != job trace id %q", sum.Summary.TraceID, bad.Result.TraceID)
	}
	norm := bad
	norm.Result.QueuedFor = 0
	norm.Result.RunFor = 0
	norm.Result.TraceID = ""
	norm.Result.SpanID = ""
	wantRec := StreamRecord{Type: "job", Job: 1, Result: &Result{
		Name: "bad",
		Err:  "no program source (set source, or program resolved by the manifest loader)",
	}}
	got, err := json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wantRec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("normalized bad-job line:\n got %s\nwant %s", got, want)
	}
}

// flushCounter wraps a writer and counts Flush calls, standing in for an
// http.ResponseWriter.
type flushCounter struct {
	bytes.Buffer
	flushes int
}

func (f *flushCounter) Flush() { f.flushes++ }

// TestFleetStreamFlushesPerRecord checks each record is pushed to the
// client as it is written, and that a write error is latched (silencing
// further output) rather than aborting the batch.
func TestFleetStreamFlushesPerRecord(t *testing.T) {
	mc, src := loadFIR(t)
	fw := &flushCounter{}
	st := NewStreamer(fw)
	if _, err := Run(mc, sim.Compiled, firJobs(src, 3), Options{Workers: 1, Telemetry: st}); err != nil {
		t.Fatal(err)
	}
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	if want := 3 + 1; fw.flushes != want {
		t.Errorf("%d flushes, want %d (one per record)", fw.flushes, want)
	}

	failing := NewStreamer(errWriter{})
	sum, err := Run(mc, sim.Compiled, firJobs(src, 2), Options{Workers: 1, Telemetry: failing})
	if err != nil {
		t.Fatal("a broken stream client must not fail the batch:", err)
	}
	if sum.Failed != 0 {
		t.Errorf("jobs failed under a broken stream: %+v", sum.Results)
	}
	if failing.Err() == nil {
		t.Error("streamer did not latch the write error")
	}
}

type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errBroken }

var errBroken = &brokenPipeError{}

type brokenPipeError struct{}

func (*brokenPipeError) Error() string { return "client went away" }
