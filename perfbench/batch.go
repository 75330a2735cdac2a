package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"golisa/internal/asm"
	"golisa/internal/core"
	"golisa/internal/fleet"
	"golisa/internal/gosim"
	"golisa/internal/otrace"
	"golisa/internal/sim"
)

// batchSetup is everything built before the first timed batch.
type batchSetup struct {
	mc      *core.Machine
	progs   []*asm.Program
	words   int
	art     *sim.Artifact
	gps     []*gosim.Program // generated mode
	cache   *gosim.Cache     // generated mode: the runners built cold
	runners string           // generated mode: the runner-cache directory
}

// setupBatch loads the model, assembles every distinct program, builds
// the prewarmed artifact and, in generated mode, translates each program
// with gosim and builds its runner cold into the empty runner cache dir.
func setupBatch(rec *recorder, ks []Kernel, mode sim.Mode, runners string, workers int) (*batchSetup, error) {
	root := rec.start(0, "bench.setup")
	defer rec.end(root)
	sp := rec.start(root, "parser.load")
	mc, err := core.LoadBuiltin("simple16")
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	st := &batchSetup{mc: mc, runners: runners}
	sp = rec.start(root, "asm.assemble")
	a, err := mc.NewAssembler()
	var words []uint64
	for _, k := range ks {
		if err != nil {
			break
		}
		var p *asm.Program
		if p, err = a.Assemble(k.Source); err == nil {
			st.progs = append(st.progs, p)
			words = append(words, p.Words...)
		} else {
			err = fmt.Errorf("assemble %s: %w", k.Name, err)
		}
	}
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	st.words = len(words)
	sp = rec.start(root, "sim.prewarm")
	st.art = sim.NewArtifact(mc.Model, mode)
	err = st.art.Prewarm(words)
	rec.end(sp)
	if err != nil || mode != sim.Generated {
		return st, err
	}

	sp = rec.start(root, "gosim.compile")
	for i, p := range st.progs {
		gp, err := gosim.Compile(mc, p)
		if err != nil {
			rec.end(sp)
			return nil, fmt.Errorf("gosim compile %s: %w", ks[i].Name, err)
		}
		st.gps = append(st.gps, gp)
	}
	rec.end(sp)
	sp = rec.start(root, "gosim.build")
	defer rec.end(sp)
	st.cache = gosim.NewCache(runners)
	errs := make([]error, len(st.gps))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				b := rec.start(sp, "gosim.runner")
				_, _, errs[i] = st.cache.Runner(st.gps[i])
				rec.end(b)
			}
		}()
	}
	for i := range st.gps {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("build runner %s: %w", ks[i].Name, err)
		}
	}
	return st, nil
}

// phaseTele collects a batch's build-phase timings through fleet's
// public telemetry hook.
type phaseTele struct {
	fleet.NopTelemetry
	mu     sync.Mutex
	phases map[string]time.Duration
}

func (t *phaseTele) OnPhase(name string, from, to time.Duration) {
	t.mu.Lock()
	t.phases[name] += to - from
	t.mu.Unlock()
}

// runBatch measures a batch workload: one fleet.Run of the whole job set
// after another until the time is up, in prebound or generated mode.
func runBatch(cfg config, generated bool) (*result, error) {
	res := newResult(cfg)
	ks, order := genBatch(cfg.seed, cfg.scale)
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.Name
	}
	mode := sim.CompiledPrebound
	if generated {
		mode = sim.Generated
	}
	cap := runCap(batchMaxTarget, cfg.scale)
	work, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var base string
	if generated {
		if base, err = goCacheBase(cfg.workDir); err != nil {
			return nil, err
		}
	}
	var st *batchSetup
	for i := 0; i < cfg.setups; i++ {
		var runners string
		if generated {
			// Every set-up builds into an empty runner cache with Go's
			// build cache restored to the same baseline: the standard
			// library compiled, no runner package.
			gc := filepath.Join(work, fmt.Sprintf("gocache-%d", i))
			if err := copyDir(base, gc); err != nil {
				return nil, err
			}
			os.Setenv("GOCACHE", gc)
			runners = filepath.Join(work, fmt.Sprintf("runners-%d", i))
			if st != nil {
				os.RemoveAll(st.runners)
				os.RemoveAll(filepath.Join(work, fmt.Sprintf("gocache-%d", i-1)))
			}
		}
		t0 := time.Now()
		if st, err = setupBatch(res.rec, ks, mode, runners, cfg.workers); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}

	jobs := make([]fleet.Job, len(order))
	for j, i := range order {
		jobs[j] = fleet.Job{Name: ks[i].Name, Source: ks[i].Source}
	}
	tl := newTally(len(ks))
	var jobsRun, native int
	record := func(sum *fleet.Summary) {
		for j, r := range sum.Results {
			o := outcome{Steps: r.Steps, Halted: r.Halted, Err: r.Err}
			if generated && !r.GenNative && o.Err == "" {
				o.Err = "ran on the IR interpreter, not the native runner: " + r.GenFallback
			}
			tl.add(order[j], o)
			if r.GenNative {
				native++
			}
		}
		jobsRun += len(sum.Results)
	}
	batch := func(traced bool) (*fleet.Summary, time.Duration, *phaseTele, error) {
		opt := fleet.Options{Workers: cfg.workers, MaxSteps: cap, GenCache: st.runners}
		var tele *phaseTele
		var rec *recorder
		if traced {
			rec = res.rec
			tele = &phaseTele{phases: map[string]time.Duration{}}
			opt.Telemetry = tele
			opt.Trace = otrace.New("perfbench")
		}
		sp := rec.start(0, "fleet.Run")
		t0 := time.Now()
		sum, err := fleet.Run(st.mc, mode, jobs, opt)
		wall := time.Since(t0)
		rec.end(sp)
		if err != nil {
			return nil, 0, nil, err
		}
		if traced {
			for _, s := range opt.Trace.Export().Spans {
				if s.Name == "gosim-compile" {
					tele.phases["compile"] += time.Duration(s.DurUs * 1e3)
				}
			}
		}
		record(sum)
		return sum, wall, tele, nil
	}

	untraced := cfg.seconds
	if cfg.trace {
		untraced = cfg.seconds / 2
	}
	start := time.Now()
	for time.Since(start).Seconds() < untraced {
		sum, wall, _, err := batch(false)
		if err != nil {
			return nil, err
		}
		res.phase += wall
		res.cycles += sum.TotalSteps
		res.roundMcps = append(res.roundMcps, ratio(float64(sum.TotalSteps), wall.Seconds())/1e6)
		jobMs := make([]float64, len(sum.Results))
		for j, r := range sum.Results {
			jobMs[j] = ms(r.RunFor)
		}
		res.runMs = append(res.runMs, jobMs...)
		tv, pct, _ := tail(jobMs)
		res.batchTails = append(res.batchTails, tv)
		res.tailDesc = fmt.Sprintf("each batch's p%.1f of %d jobs", pct, len(jobMs))
	}
	if cfg.trace {
		if err := tracedBatch(cfg, res, st, batch, tl, ks, cap); err != nil {
			return nil, err
		}
	}
	res.peakRSS = peakRSSMB()

	refs, err := reference(st.mc, st.progs, nil, cap, cfg.workers, res.rec)
	if err != nil {
		return nil, err
	}
	for i := range refs {
		res.sim.add(refs[i], batchRepeats)
		// A batch job reports steps and halt only; the data it computed
		// is checked by the program itself, which halts only on a match.
		refs[i].out.Mem, refs[i].out.Stalls, refs[i].out.Flushes = 0, 0, 0
	}
	res.checkRefs(refs, tl, names)
	nativeFrac := ratio(float64(native), float64(jobsRun))
	if generated {
		res.note(fmt.Sprintf("gosim.native_frac %.4f: %d of %d jobs ran their native runner; any other job counts as failed", nativeFrac, native, jobsRun))
	}
	if cfg.trace {
		L := res.layer
		L["gosim.native_frac"] = nativeFrac
		res.setupLayers(st.words, st.art.CachedWords(), refs)
		res.note("obs.*, analyze.* and cover.* are zero: batch jobs run with observers detached")
		res.note("sim.stalls_per_kcycle and sim.flushes_per_kcycle are zero: simple16 has neither")
	}
	return res, nil
}

// tracedBatch is the traced half of a batch workload: fleet.Run with its
// telemetry and trace attached, then probes that call the layers a job
// goes through directly, one program at a time.
func tracedBatch(cfg config, res *result, st *batchSetup,
	batch func(bool) (*fleet.Summary, time.Duration, *phaseTele, error),
	tl *tally, ks []Kernel, cap uint64) error {
	L := res.layer
	var (
		batches, jobs               float64
		util, queue, overhead, hits float64
		tracedWall                  time.Duration
		tracedCycles                uint64
		dHits, decodes, compiles    uint64
	)
	start := time.Now()
	for time.Since(start).Seconds() < cfg.seconds/2 {
		sum, wall, tele, err := batch(true)
		if err != nil {
			return err
		}
		batches++
		jobs += float64(sum.Jobs)
		util += sum.Latency.Utilization
		for _, r := range sum.Results {
			queue += ms(r.QueuedFor)
			dHits += r.Profile.DecodeHits
		}
		decodes += sum.JobDecodes
		compiles += sum.JobCompiles
		p := tele.phases
		overhead += ms(wall - p["assemble"] - p["prewarm"] - p["compile"] - sum.Elapsed)
		hits += ratio(float64(uint64(len(ks))-sum.RunnerBuilds), float64(len(ks)))
		tracedWall += wall
		tracedCycles += sum.TotalSteps
	}
	L["fleet.worker_util"] = util / batches
	L["fleet.queue_wait_ms"] = queue / jobs
	L["fleet.overhead_ms"] = overhead / batches
	untracedNs := ratio(float64(res.phase.Nanoseconds()), float64(res.cycles))
	tracedNs := ratio(float64(tracedWall.Nanoseconds()), float64(tracedCycles))
	L["trace.overhead_frac"] = ratio(tracedNs, untracedNs) - 1

	if st.gps == nil {
		L["sim.decode_hit_ratio"] = ratio(float64(dHits), float64(dHits+decodes))
		L["sim.job_decodes"] = float64(decodes) / jobs
		L["sim.job_compiles"] = float64(compiles) / jobs
		return probeSim(res, st, tl, cap)
	}
	L["gosim.cache_hit_ratio"] = hits / batches
	L["gosim.builds"] = float64(st.cache.Builds())
	L["gosim.compile_ms"] = median(res.rec.durationsMs("gosim.compile"))
	L["gosim.build_ms"] = median(res.rec.durationsMs("gosim.build"))
	res.note("sim.run_ns_per_cycle, sim.load_us, sim.allocs_per_cycle, sim.bytes_per_cycle and the decode counters are zero: generated jobs run in the native runner, not in sim")
	return probeGosim(res, st, tl, ks, cap)
}

// probeSim runs each distinct program once through the calls a prebound
// fleet job makes (NewFromArtifact, Reset, LoadProgram, Run), timing the
// load and the run separately and counting the run's allocations.
func probeSim(res *result, st *batchSetup, tl *tally, cap uint64) error {
	pm, err := st.mc.ProgramMemory()
	if err != nil {
		return err
	}
	var load, run time.Duration
	var cycles, mallocs, bytes uint64
	var m0, m1 runtime.MemStats
	for i, p := range st.progs {
		root := res.rec.start(0, "bench.probe")
		sp := res.rec.start(root, "sim.load")
		t0 := time.Now()
		s := sim.NewFromArtifact(st.art)
		err := s.Reset()
		if err == nil {
			err = s.LoadProgram(pm, p.Origin, p.Words)
		}
		load += time.Since(t0)
		res.rec.end(sp)
		var o outcome
		if err == nil {
			runtime.ReadMemStats(&m0)
			sp = res.rec.start(root, "sim.Run")
			t1 := time.Now()
			o.Steps, err = s.Run(cap)
			run += time.Since(t1)
			res.rec.end(sp)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			bytes += m1.TotalAlloc - m0.TotalAlloc
		}
		res.rec.end(root)
		if err != nil {
			o.Err = err.Error()
		}
		o.Halted = s.Halted()
		tl.add(i, o)
		cycles += o.Steps
	}
	L := res.layer
	n := float64(len(st.progs))
	L["sim.load_us"] = float64(load.Microseconds()) / n
	L["sim.run_ns_per_cycle"] = ratio(float64(run.Nanoseconds()), float64(cycles))
	L["sim.allocs_per_cycle"] = ratio(float64(mallocs), float64(cycles))
	L["sim.bytes_per_cycle"] = ratio(float64(bytes), float64(cycles))
	res.note(fmt.Sprintf("rationale: per-job fixed cost (load %.0f us) against %.0f us of Run for a mean job; sim.* layer numbers come from a probe of each distinct program run directly",
		L["sim.load_us"], float64(run.Microseconds())/n))
	res.note("gosim.* are zero: prebound batches do not use the generated tier")
	return nil
}

// probeGosim runs each distinct program once through gosim.Engine with
// the set-up's runner cache, splitting Engine.Run's wall time into the
// runner's self-timed step loop and everything else (exec, protocol).
func probeGosim(res *result, st *batchSetup, tl *tally, ks []Kernel, cap uint64) error {
	var wall time.Duration
	var runNs int64
	var steps uint64
	for i, gp := range st.gps {
		sp := res.rec.start(0, "gosim.Engine.Run")
		t0 := time.Now()
		r, err := gosim.NewEngine(gp, st.cache, gosim.Options{}).Run(cap)
		wall += time.Since(t0)
		res.rec.end(sp)
		var o outcome
		switch {
		case err != nil:
			o.Err = err.Error()
		case !r.Native:
			o.Err = "ran on the IR interpreter, not the native runner: " + r.Fallback
		}
		if r != nil {
			o.Steps, o.Halted = r.Steps, r.Halted
			runNs += r.RunNs
			steps += r.Steps
		}
		tl.add(i, o)
	}
	L := res.layer
	n := float64(len(st.gps))
	L["gosim.exec_overhead_ms"] = ms(wall-time.Duration(runNs)) / n
	L["gosim.run_ns_per_cycle"] = ratio(float64(runNs), float64(steps))
	res.note(fmt.Sprintf("rationale: exec and protocol overhead is %.1f%% of gosim Engine.Run wall time per job (%.2f ms of %.2f ms)",
		100*ratio(float64(wall.Nanoseconds()-runNs), float64(wall.Nanoseconds())), L["gosim.exec_overhead_ms"], ms(wall)/n))
	return nil
}

// goCacheBase returns a Go build cache that holds the standard-library
// packages a gosim runner imports and nothing else, built once per work
// directory by building one throwaway runner into it.
func goCacheBase(workDir string) (string, error) {
	base := filepath.Join(workDir, "gocache-base")
	ready := filepath.Join(base, "READY")
	if _, err := os.Stat(ready); err == nil {
		return base, nil
	}
	if err := os.RemoveAll(base); err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(workDir, "warmup-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	mc, err := core.LoadBuiltin("simple16")
	if err != nil {
		return "", err
	}
	a, err := mc.NewAssembler()
	if err != nil {
		return "", err
	}
	p, err := a.Assemble("LDI A1, 7\nNOP\nNOP\nNOP\nHALT\n")
	if err != nil {
		return "", err
	}
	gp, err := gosim.Compile(mc, p)
	if err != nil {
		return "", err
	}
	os.Setenv("GOCACHE", base)
	if _, _, err := gosim.NewCache(tmp).Runner(gp); err != nil {
		return "", fmt.Errorf("warm Go build cache: %w", err)
	}
	return base, os.WriteFile(ready, nil, 0o644)
}

// copyDir copies the regular files of the tree at src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
