// Package fleet runs batches of simulation jobs concurrently over one
// shared compiled-model artifact. The paper's compiled-simulation
// principle — decode and bind once, re-execute many times — is applied
// across runs instead of within one: the model is parsed, analyzed,
// decoded and (outside interpretive mode) compiled to closures exactly once
// (sim.Artifact), and every job gets only the cheap per-run state. M jobs
// on N worker goroutines therefore pay the model-compilation cost once,
// which the Summary's counters prove (JobDecodes and JobCompiles stay
// zero when the job programs were pre-warmed).
package fleet

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"golisa/internal/analyze"
	"golisa/internal/asm"
	"golisa/internal/core"
	"golisa/internal/cover"
	"golisa/internal/gosim"
	"golisa/internal/otrace"
	"golisa/internal/perf"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// Job is one simulation to run: a program plus its per-job configuration.
// Source holds inline assembly text; Program names an assembly file and is
// resolved into Source by LoadManifest (Run itself never touches the
// filesystem).
type Job struct {
	Name     string `json:"name,omitempty"`
	Program  string `json:"program,omitempty"`
	Source   string `json:"source,omitempty"`
	MaxSteps uint64 `json:"max,omitempty"` // 0 = Options.MaxSteps
}

// Result is the outcome of one job. Err is a string so results serialize
// cleanly over the /batch endpoint and into -batch-json files.
type Result struct {
	Name    string            `json:"name"`
	Steps   uint64            `json:"steps"`
	Halted  bool              `json:"halted"`
	Err     string            `json:"error,omitempty"`
	Profile sim.Profile       `json:"profile"`
	Prints  []string          `json:"prints,omitempty"`
	Penalty map[string]uint64 `json:"penalty,omitempty"` // per-cause penalty cycles (Options.Analyze)

	// Coverage is the job's model-coverage snapshot (Options.Cover).
	Coverage *cover.Snapshot `json:"coverage,omitempty"`

	// Lifecycle timing, always populated: the worker-pool index that ran
	// the job, how long it waited in the run queue, and how long it ran.
	Worker    int           `json:"worker"`
	QueuedFor time.Duration `json:"queued_for_ns"`
	RunFor    time.Duration `json:"run_for_ns"`

	// PrintsTruncated marks that the job emitted more print lines than
	// Options.MaxPrints and the excess was dropped.
	PrintsTruncated bool `json:"prints_truncated,omitempty"`

	// GenNative marks a generated-mode job that executed its built native
	// runner; GenFallback records why one ran on the in-process IR
	// interpreter instead (toolchain missing, program below the build
	// threshold). Jobs outside the generated tier leave both zero.
	GenNative   bool   `json:"gen_native,omitempty"`
	GenFallback string `json:"gen_fallback,omitempty"`

	// TraceID/SpanID are the job's identity in the batch's trace: TraceID
	// is shared by the whole batch, SpanID names this job's span. They tie
	// the NDJSON stream, perf records and Chrome timeline together.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// Options configures a batch run.
type Options struct {
	// Workers is the number of concurrent simulation goroutines;
	// 0 or negative means runtime.GOMAXPROCS(0).
	Workers int
	// MaxSteps caps each job that does not set its own limit
	// (default 1,000,000 control steps).
	MaxSteps uint64
	// Analyze attaches a hazard analyzer to every job and aggregates
	// per-cause penalty cycles into the results and the summary.
	Analyze bool
	// Cover attaches a model-coverage collector to every job and unions
	// the per-job snapshots into the summary. The domain enumeration is
	// built once per batch and shared (read-only) by every worker.
	Cover bool
	// MaxPrints caps each job's captured print lines so a print-looping
	// program cannot exhaust the host's memory: 0 means DefaultMaxPrints,
	// negative means unlimited. Jobs that hit the cap keep their first
	// MaxPrints lines and get Result.PrintsTruncated set.
	MaxPrints int
	// Telemetry, when non-nil, receives the batch's lifecycle events
	// (per-job spans, build phases, the final summary). Nil costs nothing.
	Telemetry Telemetry
	// Perf turns the batch into performance-observatory records: one
	// sealed ledger RunRecord per successful job plus one batch-level
	// record carrying the latency summary, in Summary.Perf.
	Perf bool
	// Trace, when non-nil, is the trace context the batch records its
	// spans into (batch → assemble / artifact-build / decode-warm →
	// job:<name> → run), so a caller-minted trace (an HTTP request, a CLI
	// invocation joining LISA_TRACEPARENT) and the batch share one
	// TraceID. Nil makes Run mint a fresh trace — every batch has one.
	Trace *otrace.Trace
	// Chrome, when non-nil, both joins the telemetry fanout (worker-lane
	// batch timeline) and attaches a per-cycle Chrome tracer to every
	// job, merging each job's pipeline lanes into the same document
	// rebased onto the batch clock (ChromeSpans.AddSim). This is the
	// merged fleet+sim timeline; attaching the same collector via
	// Telemetry instead yields only the fleet lanes.
	Chrome *ChromeSpans
	// GenCache is the generated-mode runner cache directory ("" = the
	// per-user default). Only consulted when the batch mode is
	// sim.Generated.
	GenCache string
}

// DefaultMaxSteps caps jobs when neither the job nor the options set one.
const DefaultMaxSteps = 1_000_000

// DefaultMaxPrints caps per-job captured print lines when Options.MaxPrints
// is zero.
const DefaultMaxPrints = 1000

// Summary aggregates a batch run. Results preserve the input job order
// regardless of worker scheduling.
type Summary struct {
	Model   string `json:"model"`
	Mode    string `json:"mode"`
	Jobs    int    `json:"jobs"`
	Workers int    `json:"workers"`
	Failed  int    `json:"failed"`

	// TraceID is the batch's trace identity; SpanID is the batch span.
	// Every job Result carries the same TraceID with its own SpanID.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`

	TotalSteps uint64        `json:"total_steps"`
	Elapsed    time.Duration `json:"elapsed_ns"`

	// Artifact-sharing accounting: the build-once costs versus the decode
	// and compile work the jobs performed at run time.
	PrewarmDecodes   uint64 `json:"prewarm_decodes"`
	ArtifactCompiles uint64 `json:"artifact_compiles"`
	CachedWords      int    `json:"cached_words"`
	JobDecodes       uint64 `json:"job_decodes"`
	JobCompiles      uint64 `json:"job_compiles"`

	// Generated-tier accounting: RunnerBuilds counts the `go build`
	// invocations this batch performed for runner binaries — at most one
	// per distinct (model, program) pair, zero when every runner was
	// already cached. RunnerStarts counts the resident runner processes
	// the batch started: workers reuse an idle runner of the same program,
	// so it grows with concurrency, not with the job count. GenNative and
	// GenFallback count generated-mode jobs by how they executed.
	RunnerBuilds uint64 `json:"runner_builds,omitempty"`
	RunnerStarts uint64 `json:"runner_starts,omitempty"`
	GenNative    int    `json:"gen_native,omitempty"`
	GenFallback  int    `json:"gen_fallback,omitempty"`

	// Penalty aggregates per-cause penalty cycles over all analyzed jobs
	// (Options.Analyze).
	Penalty map[string]uint64 `json:"penalty,omitempty"`

	// Coverage is the union of every job's coverage snapshot
	// (Options.Cover).
	Coverage *cover.Snapshot `json:"coverage,omitempty"`

	// Latency summarizes the per-job lifecycle spans.
	Latency Latency `json:"latency"`

	// Perf holds the batch's sealed ledger records (Options.Perf): one
	// per successful job plus one batch-level record.
	Perf []*perf.RunRecord `json:"perf,omitempty"`

	Results []Result `json:"results"`
}

// Latency is the batch's job-latency summary, computed from the per-job
// lifecycle spans through an HDR-style histogram (quantiles are bucket
// upper bounds, ≤6.25% high; Max is exact). Throughput and utilization
// are the roadmap's simulation-as-a-service baseline numbers: jobs/sec
// over the run phase, and the fraction of worker·time spent running jobs.
type Latency struct {
	P50        time.Duration `json:"p50_ns"`
	P90        time.Duration `json:"p90_ns"`
	P99        time.Duration `json:"p99_ns"`
	Max        time.Duration `json:"max_ns"`
	JobsPerSec float64       `json:"jobs_per_sec"`
	// Utilization is sum(job run time) / (workers × batch run phase),
	// 1.0 meaning every worker ran jobs wall-to-wall.
	Utilization float64 `json:"worker_utilization"`
}

// Run assembles every job's program (distinct sources once), builds one
// shared artifact pre-warmed with the union of all instruction words, and
// executes the jobs on a pool of worker goroutines. Job failures (bad
// assembly, run-time errors) are recorded in the job's Result, not
// returned; Run errors only when the batch cannot start at all.
func Run(mc *core.Machine, mode sim.Mode, jobs []Job, opt Options) (*Summary, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("fleet: no jobs")
	}
	batchStart := time.Now()
	tr := opt.Trace
	if tr == nil {
		tr = otrace.New("fleet-batch")
	}
	tele := opt.Telemetry
	if opt.Chrome != nil {
		tele = TeleFanout(tele, opt.Chrome)
	}
	em := newTeleEmitter(tele, batchStart)
	pm, err := mc.ProgramMemory()
	if err != nil {
		return nil, err
	}
	assembler, err := mc.NewAssembler()
	if err != nil {
		return nil, err
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	batchSpan := tr.Start(nil, "batch")
	batchSpan.SetAttr("model", mc.Model.Name)
	batchSpan.SetAttr("mode", mode.String())
	batchSpan.SetAttr("jobs", len(jobs))
	batchSpan.SetAttr("workers", workers)
	em.batchStart(BatchInfo{Model: mc.Model.Name, Mode: mode.String(),
		Jobs: len(jobs), Workers: workers, TraceID: tr.ID().String()})

	// Assemble each distinct source once; jobs sharing a program share the
	// assembled image (read-only afterwards).
	asmSpan := tr.Start(batchSpan, "assemble")
	asmFrom := time.Since(batchStart)
	progs := map[string]*asm.Program{}
	asmErrs := map[string]error{}
	var words []uint64
	seen := map[uint64]bool{}
	for _, job := range jobs {
		src := job.Source
		if _, done := progs[src]; done || asmErrs[src] != nil {
			continue
		}
		prog, err := assembler.Assemble(src)
		if err != nil {
			asmErrs[src] = err
			continue
		}
		progs[src] = prog
		for _, w := range prog.Words {
			if !seen[w] {
				seen[w] = true
				words = append(words, w)
			}
		}
	}
	asmSpan.SetAttr("sources", len(progs))
	asmSpan.End()
	em.phase("assemble", asmFrom, time.Since(batchStart))

	prewarmFrom := time.Since(batchStart)
	artSpan := tr.Start(batchSpan, "artifact-build")
	art := sim.NewArtifact(mc.Model, mode)
	artSpan.End()
	warmSpan := tr.Start(batchSpan, "decode-warm")
	warmSpan.SetAttr("words", len(words))
	if err := art.Prewarm(words); err != nil {
		return nil, err
	}
	warmSpan.End()
	em.phase("prewarm", prewarmFrom, time.Since(batchStart))

	// The coverage enumeration is deterministic per model, so one map
	// serves every worker read-only and all snapshots stay mergeable.
	var covMap *cover.Map
	if opt.Cover {
		covMap = cover.NewMap(mc.Model)
	}

	// Generated tier: compile each distinct program into its specialized
	// gosim form once; workers share one runner cache, so each (model,
	// program) pair is `go build`-ed at most once across the whole pool.
	// Observer-needing options (Analyze/Cover/Chrome) and unsupported
	// programs stay on the in-process compiled artifact path.
	var genProgs map[string]*gosim.Program
	var genCache *gosim.Cache
	if mode == sim.Generated && !opt.Analyze && !opt.Cover && opt.Chrome == nil {
		genCache = gosim.NewCache(opt.GenCache)
		defer genCache.Close()
		genProgs = make(map[string]*gosim.Program, len(progs))
		genSpan := tr.Start(batchSpan, "gosim-compile")
		for src, prog := range progs {
			if gp, err := gosim.Compile(mc, prog); err == nil {
				genProgs[src] = gp
			}
		}
		genSpan.SetAttr("programs", len(genProgs))
		genSpan.End()
	}

	defMax := opt.MaxSteps
	if defMax == 0 {
		defMax = DefaultMaxSteps
	}
	maxPrints := opt.MaxPrints
	if maxPrints == 0 {
		maxPrints = DefaultMaxPrints
	}

	start := time.Now()
	queuedAt := time.Since(batchStart)
	if em != nil {
		for i := range jobs {
			em.jobQueued(i, jobLabel(i, jobs[i]), queuedAt)
		}
	}
	results := make([]Result, len(jobs))
	var simTracers []*trace.ChromeTracer
	if opt.Chrome != nil {
		simTracers = make([]*trace.ChromeTracer, len(jobs))
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range idx {
				job := jobs[i]
				name := jobLabel(i, job)
				startedAt := time.Since(batchStart)
				em.jobStart(i, worker, name, startedAt)
				jobSpan := tr.Start(batchSpan, "job:"+name)
				jobSpan.SetAttr("job", i)
				jobSpan.SetAttr("worker", worker)
				res := Result{Name: name, Worker: worker,
					TraceID: tr.ID().String(), SpanID: jobSpan.ID().String()}
				switch {
				case job.Source == "":
					res.Err = "no program source (set source, or program resolved by the manifest loader)"
				case asmErrs[job.Source] != nil:
					res.Err = asmErrs[job.Source].Error()
				default:
					max := job.MaxSteps
					if max == 0 {
						max = defMax
					}
					var ct *trace.ChromeTracer
					if simTracers != nil {
						ct = trace.NewChromeTracer()
						simTracers[i] = ct
					}
					runSpan := tr.Start(jobSpan, "run")
					if gp := genProgs[job.Source]; gp != nil {
						runGenJob(genCache, gp, max, maxPrints, &res)
					} else {
						runJob(art, pm, progs[job.Source], max, maxPrints, opt.Analyze, covMap, ct, &res)
					}
					runSpan.SetAttr("steps", res.Steps)
					runSpan.End()
				}
				jobSpan.SetAttr("halted", res.Halted)
				if res.Err != "" {
					jobSpan.SetAttr("error", res.Err)
				}
				jobSpan.End()
				finishedAt := time.Since(batchStart)
				res.QueuedFor = startedAt - queuedAt
				res.RunFor = finishedAt - startedAt
				results[i] = res
				em.jobFinish(Span{
					Job: i, Name: name, Worker: worker,
					Queued: queuedAt, Started: startedAt, Finished: finishedAt,
					Steps: res.Steps, Halted: res.Halted, Err: res.Err,
					Result: &results[i],
				})
			}
		}(w)
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Merge each job's per-cycle lanes into the batch timeline, in job
	// order, rebased so a job's pipeline activity sits exactly under its
	// worker-lane slice on the shared clock.
	if opt.Chrome != nil {
		for i := range results {
			r := &results[i]
			ct := simTracers[i]
			if ct == nil || ct.Len() == 0 {
				continue
			}
			scale := 1.0
			if r.Steps > 0 && r.RunFor > 0 {
				scale = us(r.RunFor) / float64(r.Steps)
			}
			opt.Chrome.AddSim(i, r.Name, ct.Events(), us(queuedAt+r.QueuedFor), scale)
		}
	}

	sum := &Summary{
		TraceID:          tr.ID().String(),
		SpanID:           batchSpan.ID().String(),
		Model:            mc.Model.Name,
		Mode:             mode.String(),
		Jobs:             len(jobs),
		Workers:          workers,
		Elapsed:          time.Since(start),
		PrewarmDecodes:   art.Decodes(),
		ArtifactCompiles: art.Compiles(),
		CachedWords:      art.CachedWords(),
		Results:          results,
	}
	var hist Histogram
	var busy time.Duration
	for i := range results {
		r := &results[i]
		if r.Err != "" {
			sum.Failed++
		}
		sum.TotalSteps += r.Steps
		sum.JobDecodes += r.Profile.Decodes
		sum.JobCompiles += r.Profile.Compiles
		for cause, n := range r.Penalty {
			if sum.Penalty == nil {
				sum.Penalty = map[string]uint64{}
			}
			sum.Penalty[cause] += n
		}
		if r.Coverage != nil {
			if sum.Coverage == nil {
				sum.Coverage = r.Coverage.Clone()
			} else if err := sum.Coverage.Merge(r.Coverage); err != nil {
				// Snapshots of one batch share one map; a mismatch here
				// is a bug, surfaced on the job rather than dropped.
				r.Err = err.Error()
				sum.Failed++
			}
		}
		if r.GenNative {
			sum.GenNative++
		}
		if r.GenFallback != "" {
			sum.GenFallback++
		}
		hist.Observe(uint64(r.RunFor))
		busy += r.RunFor
	}
	if genCache != nil {
		sum.RunnerBuilds = genCache.Builds()
		sum.RunnerStarts = genCache.Starts()
	}
	sum.Latency = Latency{
		P50: time.Duration(hist.Quantile(0.50)),
		P90: time.Duration(hist.Quantile(0.90)),
		P99: time.Duration(hist.Quantile(0.99)),
		Max: time.Duration(hist.Max()),
	}
	if sec := sum.Elapsed.Seconds(); sec > 0 {
		sum.Latency.JobsPerSec = float64(len(jobs)) / sec
		sum.Latency.Utilization = busy.Seconds() / (float64(workers) * sec)
	}
	if opt.Perf {
		sum.Perf = buildPerfRecords(mc, mode, jobs, progs, sum, perfStamp())
	}
	batchSpan.End()
	em.batchEnd(sum)
	return sum, nil
}

// jobLabel resolves a job's display name (its manifest name, or a stable
// index-derived fallback).
func jobLabel(i int, j Job) string {
	if j.Name != "" {
		return j.Name
	}
	return fmt.Sprintf("job-%d", i)
}

// runJob executes one simulation off the shared artifact and fills res.
// Each job is fully isolated: its own state, pipelines, profile and (when
// analyzing) observer. maxPrints > 0 caps the captured print lines
// (negative = unlimited) so a print-looping program cannot exhaust the
// host's memory. ct, when non-nil, records the job's per-cycle Chrome
// trace for the merged batch timeline.
func runJob(art *sim.Artifact, pm string, prog *asm.Program, maxSteps uint64, maxPrints int, doAnalyze bool, covMap *cover.Map, ct *trace.ChromeTracer, res *Result) {
	s := sim.NewFromArtifact(art)
	if err := s.Reset(); err != nil {
		res.Err = err.Error()
		return
	}
	if err := s.LoadProgram(pm, prog.Origin, prog.Words); err != nil {
		res.Err = err.Error()
		return
	}
	s.OnPrint = func(msg string) {
		if maxPrints > 0 && len(res.Prints) >= maxPrints {
			res.PrintsTruncated = true
			return
		}
		res.Prints = append(res.Prints, msg)
	}
	var an *analyze.Analyzer
	var obs []trace.Observer
	if doAnalyze {
		an = analyze.New()
		obs = append(obs, an)
	}
	var col *cover.Collector
	if covMap != nil {
		col = cover.NewCollector(covMap)
		s.OnDecoded = col.MarkDecoded
		obs = append(obs, col)
	}
	if ct != nil {
		obs = append(obs, ct)
	}
	if len(obs) > 0 {
		s.SetObserver(trace.Fanout(obs...))
	}
	n, err := s.Run(maxSteps)
	res.Steps = n
	res.Halted = s.Halted()
	res.Profile = s.Profile()
	if err != nil {
		res.Err = err.Error()
	}
	if an != nil {
		res.Penalty = map[string]uint64{}
		for c := trace.Cause(0); c < trace.NumCauses; c++ {
			if p := an.PenaltyCycles(c); p > 0 {
				res.Penalty[c.String()] = p
			}
		}
	}
	if col != nil {
		res.Coverage = col.Snapshot()
	}
}

// runGenJob executes one generated-tier simulation: the specialized
// gosim program on the shared runner cache, degrading to the in-process
// IR interpreter when the native path is unavailable.
func runGenJob(cache *gosim.Cache, gp *gosim.Program, maxSteps uint64, maxPrints int, res *Result) {
	r, err := gosim.NewEngine(gp, cache, gosim.Options{}).Run(maxSteps)
	if err != nil {
		res.Err = err.Error()
	}
	if r == nil {
		return
	}
	res.Steps = r.Steps
	res.Halted = r.Halted
	res.GenNative = r.Native
	res.GenFallback = r.Fallback
	if len(r.Penalty) > 0 {
		res.Penalty = r.Penalty
	}
	for _, msg := range r.Prints {
		if maxPrints > 0 && len(res.Prints) >= maxPrints {
			res.PrintsTruncated = true
			break
		}
		res.Prints = append(res.Prints, msg)
	}
}

// SortedPenaltyCauses returns the summary's penalty causes in a stable
// order for rendering.
func (s *Summary) SortedPenaltyCauses() []string {
	causes := make([]string, 0, len(s.Penalty))
	for c := range s.Penalty {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	return causes
}
