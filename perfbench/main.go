// Command perfbench is golisa's end-to-end benchmark. It runs one seeded
// workload through the public API of core, asm, sim, fleet and gosim
// (with analyze and cover attached where the workload calls for it),
// checks every simulated result against the interpretive engine, and
// prints the end-to-end metrics — or, with --trace 1, the per-layer
// metrics from spans it records around its own calls into each layer.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it from source:
//
//	bash perfbench/run.sh --workload s16-long --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Simulated time (cycles, CPI) and
// host time are reported separately throughout.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"golisa/internal/buildinfo"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // job-size scale: 1 for the benchmark, smaller in tests
	setups   int     // set-ups per run; setup_s is their median
	workers  int     // fleet workers and reference goroutines
	workDir  string  // runner caches, Go build caches and trace files
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"s16-long": func(c config) (*result, error) {
		return runSeq(c, "simple16", genS16Long(c.seed, c.scale), false, runCap(s16LongTarget, c.scale))
	},
	"c62x-observed": func(c config) (*result, error) {
		return runSeq(c, "c62x", genC62x(c.seed, c.scale), true, runCap(c62xTarget, c.scale))
	},
	"batch-prebound":  func(c config) (*result, error) { return runBatch(c, false) },
	"batch-generated": func(c config) (*result, error) { return runBatch(c, true) },
}

// runCap is the step limit of one run: a kernel whose self-check fails
// loops forever and stops here, counted as "no halt".
func runCap(target int, scale float64) uint64 { return uint64(4*float64(target)*scale) + 10_000 }

// endToEnd and perLayer list the metric names in the order they are
// printed; BENCHMARK.json must list the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"sim_mcps", "Mcycles/s"}, {"run_p50_ms", "ms"},
	{"run_tail_ms", "ms"}, {"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"parser.load_ms", "ms"},
	{"asm.assemble_ms", "ms"}, {"asm.words", "count"},
	{"sim.prewarm_ms", "ms"}, {"sim.prewarm_words", "count"},
	{"sim.run_ns_per_cycle", "ns/cycle"}, {"sim.allocs_per_cycle", "allocs/cycle"},
	{"sim.bytes_per_cycle", "B/cycle"}, {"sim.load_us", "us"},
	{"sim.decode_hit_ratio", "ratio"}, {"sim.job_decodes", "count"}, {"sim.job_compiles", "count"},
	{"sim.stalls_per_kcycle", "1/kcycle"}, {"sim.flushes_per_kcycle", "1/kcycle"},
	{"sim.interp_ns_per_cycle", "ns/cycle"},
	{"obs.events_per_cycle", "events/cycle"}, {"analyze.self_ns_per_cycle", "ns/cycle"},
	{"cover.self_ns_per_cycle", "ns/cycle"}, {"obs.overhead_ratio", "ratio"},
	{"fleet.worker_util", "ratio"}, {"fleet.queue_wait_ms", "ms"}, {"fleet.overhead_ms", "ms"},
	{"gosim.compile_ms", "ms"}, {"gosim.build_ms", "ms"}, {"gosim.builds", "count"},
	{"gosim.exec_overhead_ms", "ms"}, {"gosim.run_ns_per_cycle", "ns/cycle"},
	{"gosim.native_frac", "ratio"}, {"gosim.cache_hit_ratio", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

type metricDef struct{ name, unit string }

// result is what one workload run measured.
type result struct {
	rec       *recorder // nil when untraced
	setupS    []float64
	runMs     []float64     // host time of each run in the untraced phase
	phase     time.Duration // host time of the untraced phase
	cycles    uint64        // simulated cycles completed in it
	roundMcps []float64     // Mcycles/s of each round or batch in it
	// Batch workloads take run_tail_ms per batch (the natural unit a
	// caller waits for) and report the median of those tails, described
	// by tailDesc; a tail over every job of a run would sit at p99.8,
	// where a handful of scheduler hiccups decide the value.
	batchTails []float64
	tailDesc   string
	attempted  int
	failed     int
	failures   []string
	peakRSS    float64
	sim        simStats
	layer      map[string]float64
	notes      []string
}

func newResult(cfg config) *result {
	r := &result{layer: map[string]float64{}}
	if cfg.trace {
		r.rec = newRecorder()
	}
	return r
}

func (r *result) note(s string) { r.notes = append(r.notes, s) }

// setupLayers fills the per-layer metrics of set-up (the median over the
// set-ups of each layer's span, and the work counts of the last one) and
// the reference engine's speed on its check runs.
func (r *result) setupLayers(words, cached int, refs []refRun) {
	L := r.layer
	var interp time.Duration
	var steps uint64
	for _, ref := range refs {
		interp += ref.wall
		steps += ref.out.Steps
	}
	L["sim.interp_ns_per_cycle"] = ratio(float64(interp.Nanoseconds()), float64(steps))
	L["parser.load_ms"] = median(r.rec.durationsMs("parser.load"))
	L["asm.assemble_ms"] = median(r.rec.durationsMs("asm.assemble"))
	L["asm.words"] = float64(words)
	L["sim.prewarm_ms"] = median(r.rec.durationsMs("sim.prewarm"))
	L["sim.prewarm_words"] = float64(cached)
}

// checkRefs counts every tallied run against the reference outcomes.
func (r *result) checkRefs(refs []refRun, tl *tally, names []string) {
	outs := make([]outcome, len(refs))
	for i := range refs {
		outs[i] = refs[i].out
	}
	a, f, msgs := tl.check(outs, names)
	r.attempted += a
	r.failed += f + len(tl.extra)
	r.failures = append(r.failures, msgs...)
}

// simStats are the simulated statistics of the workload's job set, one
// pass over it, from the reference runs; they depend on the seed only.
type simStats struct {
	cycles  uint64
	stalls  uint64
	flushes uint64
	retired map[string]uint64
	penalty map[string]uint64
}

func (s *simStats) add(r refRun, times uint64) {
	s.cycles += times * r.out.Steps
	s.stalls += times * r.out.Stalls
	s.flushes += times * r.out.Flushes
	if s.retired == nil {
		s.retired = map[string]uint64{}
	}
	for k, v := range r.retired {
		s.retired[k] += times * v
	}
}

// addPenalty adds one "cause=n,..." breakdown.
func (s *simStats) addPenalty(p string) {
	if s.penalty == nil {
		s.penalty = map[string]uint64{}
	}
	for _, kv := range strings.Split(p, ",") {
		var n uint64
		if i := strings.IndexByte(kv, '='); i > 0 {
			fmt.Sscan(kv[i+1:], &n)
			s.penalty[kv[:i]] += n
		}
	}
}

// peakRSSMB is the peak resident memory of this process plus the largest
// of its waited-for children (runner processes and go build), in MiB.
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return float64(self.Maxrss+kids.Maxrss) / 1024
}

func main() {
	cfg := config{scale: 1, setups: 3, workers: runtime.NumCPU()}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(sortedKeys(workloads), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's programs, data and job order are drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.workDir, "work", ".bench_build", "scratch directory for runner caches and trace files")
	prepare := flag.Bool("prepare", false, "only build the Go build-cache baseline the generated tier's set-up starts from, then exit")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !*prepare && (!ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1)) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(sortedKeys(workloads), ", "))
		os.Exit(2)
	}
	var err error
	if cfg.workDir, err = filepath.Abs(cfg.workDir); err == nil {
		err = os.MkdirAll(cfg.workDir, 0o755)
	}
	if err == nil && *prepare {
		_, err = goCacheBase(cfg.workDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *prepare {
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res.rec != nil {
		path := filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := res.rec.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
			os.Exit(1)
		}
		res.note("spans written to " + path)
	}
	report(os.Stdout, cfg, res)
}

// report prints the human-readable summary and, last, the JSON line.
func report(w io.Writer, cfg config, res *result) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "build and host: %s; %s\n", buildinfo.Get(), sourceDigest())
	e2e := endToEndMetrics(res)
	fmt.Fprintln(w, "end-to-end (untraced phase):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-14s %12.4f %s\n", m.name, e2e[m.name], m.unit)
	}
	if res.batchTails != nil {
		fmt.Fprintf(w, "  run_tail_ms is the median over %d batches of %s; run_p50_ms is the median of all %d jobs\n", len(res.batchTails), res.tailDesc, len(res.runMs))
	} else {
		_, pct, ok := tail(res.runMs)
		tailNote := ""
		if !ok {
			tailNote = " (fewer than 11 runs: maximum reported)"
		}
		fmt.Fprintf(w, "  run_tail_ms is p%.1f of %d runs%s; run_p50_ms is the median of the same runs\n", pct, len(res.runMs), tailNote)
	}
	fmt.Fprintf(w, "  sim_mcps is the median over %d rounds (one pass over the job set each)\n", len(res.roundMcps))
	fmt.Fprintf(w, "  failed_frac    %12.4f (%d of %d runs)\n", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	for i, f := range res.failures {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more failures\n", len(res.failures)-10)
			break
		}
		fmt.Fprintln(w, "  FAIL", f)
	}
	s := res.sim
	fmt.Fprintf(w, "simulated (job set, one pass; must repeat exactly): cycles=%d stalls=%d flushes=%d\n", s.cycles, s.stalls, s.flushes)
	for _, k := range sortedKeys(s.retired) {
		fmt.Fprintf(w, "  CPI at %s: %.4f cycles/retired packet (%d retired)\n", k, ratio(float64(s.cycles), float64(s.retired[k])), s.retired[k])
	}
	for _, k := range sortedKeys(s.penalty) {
		fmt.Fprintf(w, "  penalty %s: %d cycles\n", k, s.penalty[k])
	}
	metrics := map[string]metricOut{}
	if cfg.trace {
		res.rec.printLayers(w)
		fmt.Fprintln(w, "per-layer:")
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-26s %14.4f %s\n", m.name, res.layer[m.name], m.unit)
			metrics[m.name] = metricOut{res.layer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = metricOut{e2e[m.name], m.unit}
		}
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "note:", n)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, metrics})
	fmt.Fprintln(w, string(line))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func endToEndMetrics(res *result) map[string]float64 {
	tv, _, _ := tail(res.runMs)
	if res.batchTails != nil {
		tv = median(res.batchTails)
	}
	return map[string]float64{
		"setup_s":     median(res.setupS),
		"sim_mcps":    median(res.roundMcps),
		"run_p50_ms":  median(res.runMs),
		"run_tail_ms": tv,
		"peak_rss_mb": res.peakRSS,
	}
}

// sourceDigest names the code measured by a digest of the program
// sources (go.mod, *.go and *.lisa outside perfbench/), since the checkout
// the benchmark runs in need not be a git repository.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".lisa") || p == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("sources sha256 %s (%d files)", hex.EncodeToString(h.Sum(nil))[:16], len(files))
}
