package fleet

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"golisa/internal/cover"
	"golisa/internal/trace"
)

// latencyBuckets are the upper bounds (seconds) of the exposed job
// latency histogram, chosen to bracket typical simulation jobs
// (sub-millisecond smokes up to multi-second sweeps).
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Metrics is a Telemetry sink accumulating fleet counters across every
// batch it observes, exported in Prometheus text exposition format
// (the debug server's /batch/metrics endpoint). One collector may be
// shared by concurrent batches — all state is guarded by its own mutex,
// on top of the per-batch serialization fleet.Run already provides.
type Metrics struct {
	mu sync.Mutex

	batches  uint64
	jobs     uint64
	failed   uint64
	inFlight int64

	// latency histogram of job run time (worker pickup to finish), in
	// seconds; bucketCounts[i] counts observations <= latencyBuckets[i],
	// non-cumulative (cumulated at exposition time).
	bucketCounts []uint64
	overflow     uint64 // observations above the last bound
	latencySum   float64
	latencyCount uint64

	// Artifact-sharing counters aggregated from batch summaries: the
	// build-once work versus what jobs re-did at run time.
	prewarmDecodes   uint64
	artifactCompiles uint64
	jobDecodes       uint64
	jobCompiles      uint64

	// Per-cause penalty cycles over analyzed jobs.
	penalty map[string]uint64

	// Union of every covered batch's coverage snapshot (batches run with
	// Options.Cover). Nil until the first covered batch; a snapshot with
	// a different fingerprint (model changed under the server) resets
	// the union rather than corrupting it.
	cov *cover.Snapshot

	// lastTraceID is the most recent batch's trace identity, exposed as
	// an exemplar-style info gauge so a scrape can be joined to the
	// NDJSON stream / perf records / Chrome timeline of the batch that
	// produced the current counter values.
	lastTraceID string
}

// NewMetrics creates an empty fleet metrics collector.
func NewMetrics() *Metrics {
	return &Metrics{
		bucketCounts: make([]uint64, len(latencyBuckets)),
		penalty:      map[string]uint64{},
	}
}

// OnBatchStart implements Telemetry.
func (m *Metrics) OnBatchStart(info BatchInfo) {
	m.mu.Lock()
	m.batches++
	if info.TraceID != "" {
		m.lastTraceID = info.TraceID
	}
	m.mu.Unlock()
}

// OnPhase implements Telemetry.
func (m *Metrics) OnPhase(string, time.Duration, time.Duration) {}

// OnJobQueued implements Telemetry.
func (m *Metrics) OnJobQueued(int, string, time.Duration) {}

// OnJobStart implements Telemetry.
func (m *Metrics) OnJobStart(int, int, string, time.Duration) {
	m.mu.Lock()
	m.inFlight++
	m.mu.Unlock()
}

// OnJobFinish implements Telemetry.
func (m *Metrics) OnJobFinish(span Span) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inFlight--
	m.jobs++
	if span.Err != "" {
		m.failed++
	}
	sec := (span.Finished - span.Started).Seconds()
	m.latencySum += sec
	m.latencyCount++
	for i, bound := range latencyBuckets {
		if sec <= bound {
			m.bucketCounts[i]++
			return
		}
	}
	m.overflow++
}

// OnBatchEnd implements Telemetry: artifact-sharing and penalty counters
// only exist aggregated on the summary, so they are folded in here.
func (m *Metrics) OnBatchEnd(sum *Summary) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prewarmDecodes += sum.PrewarmDecodes
	m.artifactCompiles += sum.ArtifactCompiles
	m.jobDecodes += sum.JobDecodes
	m.jobCompiles += sum.JobCompiles
	for cause, n := range sum.Penalty {
		m.penalty[cause] += n
	}
	if sum.Coverage != nil {
		if m.cov == nil || m.cov.Merge(sum.Coverage) != nil {
			m.cov = sum.Coverage.Clone()
		}
	}
}

// WriteText emits the collector's state in Prometheus text exposition
// format: HELP and TYPE headers per family, counters, one gauge, and a
// conventional histogram (cumulative le-labeled buckets, _sum, _count).
func (m *Metrics) WriteText(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	pw := trace.NewPromWriter(w)
	p, head := pw.Printf, pw.Head

	for _, c := range []struct {
		name, help string
		value      uint64
	}{
		{"lisa_fleet_batches_total", "Batches run.", m.batches},
		{"lisa_fleet_jobs_total", "Jobs finished, success or failure.", m.jobs},
		{"lisa_fleet_jobs_failed_total", "Jobs that finished with an error.", m.failed},
		{"lisa_fleet_prewarm_decodes_total", "Instruction decodes performed once on shared artifacts.", m.prewarmDecodes},
		{"lisa_fleet_artifact_compiles_total", "Behavior closures compiled once on shared artifacts.", m.artifactCompiles},
		{"lisa_fleet_job_decodes_total", "Run-time decodes jobs performed themselves (0 when fully pre-warmed).", m.jobDecodes},
		{"lisa_fleet_job_compiles_total", "Run-time closure compiles jobs performed themselves.", m.jobCompiles},
	} {
		head(c.name, c.help, "counter")
		p("%s %d\n", c.name, c.value)
	}

	head("lisa_fleet_jobs_in_flight", "Jobs currently running on a worker.", "gauge")
	p("lisa_fleet_jobs_in_flight %d\n", m.inFlight)

	// Exemplar-style info gauge: the label carries the identity, the
	// value is always 1. Only present once a traced batch ran, keeping
	// earlier expositions byte-identical.
	if m.lastTraceID != "" {
		head("lisa_fleet_last_batch_trace_info", "Trace ID of the most recent batch (join key into NDJSON streams, perf records and Chrome timelines).", "gauge")
		p("lisa_fleet_last_batch_trace_info{trace_id=\"%s\"} 1\n", trace.PromEscape(m.lastTraceID))
	}

	head("lisa_fleet_job_latency_seconds", "Per-job run latency (worker pickup to finish).", "histogram")
	var cum uint64
	for i, bound := range latencyBuckets {
		cum += m.bucketCounts[i]
		p("lisa_fleet_job_latency_seconds_bucket{le=\"%s\"} %d\n", formatBound(bound), cum)
	}
	p("lisa_fleet_job_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum+m.overflow)
	p("lisa_fleet_job_latency_seconds_sum %g\n", m.latencySum)
	p("lisa_fleet_job_latency_seconds_count %d\n", m.latencyCount)

	head("lisa_fleet_penalty_cycles_total", "Aggregated per-cause penalty cycles over analyzed jobs.", "counter")
	causes := make([]string, 0, len(m.penalty))
	for c := range m.penalty {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		p("lisa_fleet_penalty_cycles_total{cause=\"%s\"} %d\n", trace.PromEscape(c), m.penalty[c])
	}

	// Coverage gauges appear only once a covered batch ran, so batches
	// without Options.Cover keep the exposition byte-identical to PR 6.
	if m.cov != nil {
		head("lisa_cover_items", "Coverable model items per domain (unreachable leaves excluded).", "gauge")
		for _, d := range m.cov.Domains {
			p("lisa_cover_items{domain=\"%s\"} %d\n", trace.PromEscape(d.Name), d.Total)
		}
		head("lisa_cover_covered", "Model items covered so far per domain, unioned over covered batches.", "gauge")
		for _, d := range m.cov.Domains {
			p("lisa_cover_covered{domain=\"%s\"} %d\n", trace.PromEscape(d.Name), d.Covered)
		}
	}
	return pw.Err()
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest decimal representation, never scientific notation for these
// magnitudes.
func formatBound(b float64) string {
	s := fmt.Sprintf("%g", b)
	return s
}
