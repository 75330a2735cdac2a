package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"golisa/internal/analyze"
	"golisa/internal/asm"
	"golisa/internal/core"
	"golisa/internal/cover"
	"golisa/internal/model"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// outcome is what a run produced: the simulated result a reference must
// reproduce. Penalty is compared between runs of one program only, since
// the reference runs without observers.
type outcome struct {
	Steps   uint64
	Halted  bool
	Err     string
	Mem     uint64 // FNV-1a of the final data memory; 0 when not read
	Stalls  uint64
	Flushes uint64
}

func (o outcome) String() string {
	s := fmt.Sprintf("steps=%d halted=%v stalls=%d flushes=%d mem=%016x", o.Steps, o.Halted, o.Stalls, o.Flushes, o.Mem)
	if o.Err != "" {
		s += " error=" + o.Err
	}
	return s
}

// tally collects every run's outcome per program so all runs can be
// checked against the reference once it has been computed.
type tally struct {
	seen        []map[outcome]int
	penalty     []string // first penalty breakdown seen per program
	havePenalty []bool
	extra       []string // failures found while running (penalty drift, fallbacks)
}

func newTally(n int) *tally {
	t := &tally{seen: make([]map[outcome]int, n), penalty: make([]string, n), havePenalty: make([]bool, n)}
	for i := range t.seen {
		t.seen[i] = map[outcome]int{}
	}
	return t
}

func (t *tally) add(i int, o outcome) { t.seen[i][o]++ }

// addPenalty checks that every observed run of program i reports the
// same per-cause penalty cycles.
func (t *tally) addPenalty(i int, p string, name string) {
	if !t.havePenalty[i] {
		t.penalty[i], t.havePenalty[i] = p, true
	} else if t.penalty[i] != p {
		t.extra = append(t.extra, fmt.Sprintf("%s: penalty cycles differ between runs: %s vs %s", name, t.penalty[i], p))
	}
}

// check compares every tallied run against the reference outcomes and
// returns the runs attempted and failed, plus messages for failures.
func (t *tally) check(ref []outcome, names []string) (attempted, failed int, msgs []string) {
	for i, m := range t.seen {
		for o, n := range m {
			attempted += n
			bad := o.Err != "" || !o.Halted || !ref[i].Halted || ref[i].Err != "" || o != ref[i]
			if bad {
				failed += n
				msgs = append(msgs, fmt.Sprintf("%s: %d run(s) gave %v, reference %v", names[i], n, o, ref[i]))
			}
		}
	}
	sort.Strings(msgs)
	return attempted, failed, append(msgs, t.extra...)
}

// memHash fingerprints a memory resource's final contents.
func memHash(s *sim.Simulator, r *model.Resource) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for a := r.Base; a < r.Base+r.Size; a++ {
		v, err := s.Mem(r.Name, a)
		if err != nil {
			continue
		}
		binary.LittleEndian.PutUint64(buf[:], v.Uint())
		h.Write(buf[:])
	}
	return h.Sum64() | 1 // never 0, which means "not read"
}

func penaltyString(an *analyze.Analyzer) string {
	var parts []string
	for c := trace.Cause(0); c < trace.NumCauses; c++ {
		if p := an.PenaltyCycles(c); p > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c, p))
		}
	}
	return strings.Join(parts, ",")
}

// seqSetup is everything built before the first timed run of a
// sequential workload.
type seqSetup struct {
	mc    *core.Machine
	pm    string
	data  *model.Resource
	ks    []Kernel
	progs []*asm.Program
	words int // instruction words assembled
	art   *sim.Artifact
	cov   *cover.Map // c62x-observed only
	cap   uint64
}

// setupSeq loads the model, assembles every kernel and builds the shared
// prewarmed prebound artifact: the work a user pays before the first run.
func setupSeq(rec *recorder, modelName string, ks []Kernel, observed bool, cap uint64) (*seqSetup, error) {
	root := rec.start(0, "bench.setup")
	defer rec.end(root)
	sp := rec.start(root, "parser.load")
	mc, err := core.LoadBuiltin(modelName)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	st := &seqSetup{mc: mc, ks: ks, cap: cap, data: mc.Model.Resource("data_mem")}
	if st.pm, err = mc.ProgramMemory(); err != nil {
		return nil, err
	}
	if st.data == nil {
		return nil, fmt.Errorf("model %s has no data_mem", modelName)
	}
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
	st.art = sim.NewArtifact(mc.Model, sim.CompiledPrebound)
	err = st.art.Prewarm(words)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	if observed {
		sp = rec.start(root, "cover.map")
		st.cov = cover.NewMap(mc.Model)
		rec.end(sp)
	}
	return st, nil
}

type obsMode int

const (
	obsNone     obsMode = iota // observers detached
	obsAttached                // analyze + cover, as lisa-sim -analyze -cov
	obsTimed                   // analyze + cover behind timing forwarders
)

// runStat is one run's measurements and outcome.
type runStat struct {
	out      outcome
	observed bool          // analyze and cover were attached
	penalty  string        // their per-cause penalty cycles
	wall     time.Duration // reset/load to halt (plus tracing work when traced)
	run      time.Duration // Simulator.Run alone
	load     time.Duration
	prof     sim.Profile
	anNs     time.Duration
	covNs    time.Duration
	events   uint64
	mallocs  uint64
	bytes    uint64
}

// runOnce executes kernel i once: a fresh simulator off the shared
// artifact, reset, program and data load, observers as asked, then Run to
// halt. The outcome is read after the clock stops.
func (st *seqSetup) runOnce(i int, obs obsMode, rec *recorder, allocs bool) runStat {
	var rs runStat
	k, prog := &st.ks[i], st.progs[i]
	root := rec.start(0, "bench.run")
	t0 := time.Now()
	sp := rec.start(root, "sim.load")
	s := sim.NewFromArtifact(st.art)
	err := s.Reset()
	if err == nil {
		err = s.LoadProgram(st.pm, prog.Origin, prog.Words)
	}
	for _, w := range k.Data {
		if err == nil {
			err = s.SetMem(st.data.Name, w.Addr, w.Value)
		}
	}
	var an *analyze.Analyzer
	var ta, tc *timedObserver
	if obs != obsNone {
		an = analyze.New()
		col := cover.NewCollector(st.cov)
		if obs == obsAttached {
			s.OnDecoded = col.MarkDecoded
			s.SetObserver(trace.Fanout(an, col))
		} else {
			ta, tc = &timedObserver{inner: an}, &timedObserver{inner: col}
			s.OnDecoded = tc.markDecoded(col.MarkDecoded)
			s.SetObserver(trace.Fanout(ta, tc))
		}
	}
	rec.end(sp)
	rs.load = time.Since(t0)
	var m0, m1 runtime.MemStats
	if allocs {
		runtime.ReadMemStats(&m0)
	}
	if err == nil {
		sp = rec.start(root, "sim.Run")
		t1 := time.Now()
		rs.out.Steps, err = s.Run(st.cap)
		rs.run = time.Since(t1)
		rec.end(sp)
		if ta != nil {
			rs.anNs, rs.covNs, rs.events = ta.spent(), tc.spent(), ta.events
			rec.aggregate(sp, "analyze.callbacks", rs.anNs)
			rec.aggregate(sp, "cover.callbacks", rs.covNs)
		}
	}
	rs.wall = time.Since(t0)
	rec.end(root)
	if allocs {
		runtime.ReadMemStats(&m1)
		rs.mallocs, rs.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	}
	if err != nil {
		rs.out.Err = err.Error()
	}
	rs.prof = s.Profile()
	rs.out.Halted = s.Halted()
	rs.out.Stalls, rs.out.Flushes = rs.prof.Stalls, rs.prof.Flushes
	rs.out.Mem = memHash(s, st.data)
	if an != nil {
		rs.observed, rs.penalty = true, penaltyString(an)
	}
	return rs
}

// refRun is one reference run on the interpretive engine.
type refRun struct {
	out     outcome
	retired map[string]uint64
	wall    time.Duration
}

// reference runs every program once on the interpretive engine, the
// correctness reference, on up to workers goroutines. data, when non-nil,
// holds each program's data_mem image.
func reference(mc *core.Machine, progs []*asm.Program, data [][]memWord, cap uint64, workers int, rec *recorder) ([]refRun, error) {
	pm, err := mc.ProgramMemory()
	if err != nil {
		return nil, err
	}
	dm := mc.Model.Resource("data_mem")
	art := sim.NewArtifact(mc.Model, sim.Interpretive)
	refs := make([]refRun, len(progs))
	root := rec.start(0, "bench.check")
	defer rec.end(root)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := sim.NewFromArtifact(art)
				r := &refs[i]
				err := s.Reset()
				if err == nil {
					err = s.LoadProgram(pm, progs[i].Origin, progs[i].Words)
				}
				if data != nil {
					for _, w := range data[i] {
						if err == nil {
							err = s.SetMem(dm.Name, w.Addr, w.Value)
						}
					}
				}
				if err == nil {
					sp := rec.start(root, "check.interp")
					t0 := time.Now()
					r.out.Steps, err = s.Run(cap)
					r.wall = time.Since(t0)
					rec.end(sp)
				}
				if err != nil {
					r.out.Err = err.Error()
				}
				p := s.Profile()
				r.out.Halted = s.Halted()
				r.out.Stalls, r.out.Flushes = p.Stalls, p.Flushes
				r.out.Mem = memHash(s, dm)
				r.retired = p.RetiredByStage
			}
		}()
	}
	for i := range progs {
		next <- i
	}
	close(next)
	wg.Wait()
	return refs, nil
}

// runSeq measures a sequential workload: kernels run one at a time on the
// prebound engine, round after round, until the time is up.
func runSeq(cfg config, modelName string, ks []Kernel, observed bool, cap uint64) (*result, error) {
	res := newResult(cfg)
	var st *seqSetup
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		var err error
		if st, err = setupSeq(res.rec, modelName, ks, observed, cap); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	names := make([]string, len(ks))
	data := make([][]memWord, len(ks))
	for i, k := range ks {
		names[i], data[i] = k.Name, k.Data
	}
	tl := newTally(len(ks))
	record := func(i int, rs runStat) {
		tl.add(i, rs.out)
		if rs.observed {
			tl.addPenalty(i, rs.penalty, ks[i].Name)
		}
	}
	mode := obsNone
	if observed {
		mode = obsAttached
	}

	// Untraced phase: the end-to-end metrics.
	untraced := cfg.seconds
	if cfg.trace {
		untraced = cfg.seconds / 2
	}
	var runTime, roundWall time.Duration // runTime: Simulator.Run alone
	var roundCycles uint64
	phase(untraced, len(ks), func(i int) {
		rs := st.runOnce(i, mode, nil, false)
		record(i, rs)
		res.runMs = append(res.runMs, ms(rs.wall))
		res.phase += rs.wall
		res.cycles += rs.out.Steps
		roundWall += rs.wall
		roundCycles += rs.out.Steps
		runTime += rs.run
	}, func() {
		res.roundMcps = append(res.roundMcps, ratio(float64(roundCycles), roundWall.Seconds())/1e6)
		roundWall, roundCycles = 0, 0
	})
	if cfg.trace {
		tracedSeq(cfg, res, st, mode, record, runTime)
	}
	res.peakRSS = peakRSSMB()

	refs, err := reference(st.mc, st.progs, data, cap, cfg.workers, res.rec)
	if err != nil {
		return nil, err
	}
	res.checkRefs(refs, tl, names)
	for i := range refs {
		res.sim.add(refs[i], 1)
		if observed {
			res.sim.addPenalty(tl.penalty[i])
		}
	}
	if cfg.trace {
		res.setupLayers(st.words, st.art.CachedWords(), refs)
		res.layer["sim.stalls_per_kcycle"] = 1000 * ratio(float64(res.sim.stalls), float64(res.sim.cycles))
		res.layer["sim.flushes_per_kcycle"] = 1000 * ratio(float64(res.sim.flushes), float64(res.sim.cycles))
	}
	return res, nil
}

// tracedSeq is the traced half of a sequential workload. On s16-long
// every run is traced; on c62x-observed each round runs every kernel
// twice: detached (the sim layer alone, with allocation counts) and with
// the observers behind timing forwarders (their self time and events).
func tracedSeq(cfg config, res *result, st *seqSetup, mode obsMode, record func(int, runStat), untracedRun time.Duration) {
	var (
		load, selfRun, detRun, timedRun time.Duration
		anNs, covNs                     time.Duration
		runs, events, mallocs, bytes    uint64
		cycles, detCycles               uint64
		hits, decodes, compiles         uint64
		tracedWall                      time.Duration
	)
	observed := mode != obsNone
	tracedMode := obsNone
	if observed {
		tracedMode = obsTimed
	}
	phase(cfg.seconds/2, len(st.ks), func(i int) {
		if observed {
			d := st.runOnce(i, obsNone, res.rec, true)
			record(i, d)
			detRun += d.run
			detCycles += d.out.Steps
			mallocs += d.mallocs
			bytes += d.bytes
		}
		rs := st.runOnce(i, tracedMode, res.rec, !observed)
		record(i, rs)
		runs++
		load += rs.load
		cycles += rs.out.Steps
		selfRun += rs.run - rs.anNs - rs.covNs
		timedRun += rs.run
		anNs += rs.anNs
		covNs += rs.covNs
		events += rs.events
		tracedWall += rs.wall
		if !observed {
			mallocs += rs.mallocs
			bytes += rs.bytes
		}
		hits += rs.prof.DecodeHits
		decodes += rs.prof.Decodes
		compiles += rs.prof.Compiles
	}, nil)
	allocCycles := cycles
	if observed {
		allocCycles = detCycles
	}
	L := res.layer
	L["sim.run_ns_per_cycle"] = ratio(float64(selfRun.Nanoseconds()), float64(cycles))
	L["sim.allocs_per_cycle"] = ratio(float64(mallocs), float64(allocCycles))
	L["sim.bytes_per_cycle"] = ratio(float64(bytes), float64(allocCycles))
	L["sim.load_us"] = ratio(float64(load.Microseconds()), float64(runs))
	L["sim.decode_hit_ratio"] = ratio(float64(hits), float64(hits+decodes))
	L["sim.job_decodes"] = ratio(float64(decodes), float64(runs))
	L["sim.job_compiles"] = ratio(float64(compiles), float64(runs))
	untracedNs := ratio(float64(res.phase.Nanoseconds()), float64(res.cycles))
	if observed {
		L["obs.events_per_cycle"] = ratio(float64(events), float64(cycles))
		L["analyze.self_ns_per_cycle"] = ratio(float64(anNs.Nanoseconds()), float64(cycles))
		L["cover.self_ns_per_cycle"] = ratio(float64(covNs.Nanoseconds()), float64(cycles))
		detached := ratio(float64(detRun.Nanoseconds()), float64(detCycles))
		attached := ratio(float64(untracedRun.Nanoseconds()), float64(res.cycles))
		L["obs.overhead_ratio"] = ratio(attached, detached)
		res.note("sim.allocs_per_cycle and sim.bytes_per_cycle are counted on detached runs, so they cover the sim layer alone")
		res.note(fmt.Sprintf("rationale: observer self time is %.1f%% of Simulator.Run with analyze+cover attached (analyze %.0f ns/cycle, cover %.0f ns/cycle, Run %.0f ns/cycle)",
			100*ratio(float64((anNs+covNs).Nanoseconds()), float64(timedRun.Nanoseconds())),
			L["analyze.self_ns_per_cycle"], L["cover.self_ns_per_cycle"], ratio(float64(timedRun.Nanoseconds()), float64(cycles))))
	} else {
		res.note("obs.*, analyze.* and cover.* are zero: observers are detached on this workload")
		res.note(fmt.Sprintf("rationale: Simulator.Run self time is %.1f%% of the traced runs' host time",
			100*ratio(float64(selfRun.Nanoseconds()), float64(tracedWall.Nanoseconds()))))
	}
	tracedNs := ratio(float64(tracedWall.Nanoseconds()), float64(cycles))
	L["trace.overhead_frac"] = ratio(tracedNs, untracedNs) - 1
	res.note("fleet.* and gosim.* are zero: this workload runs one simulator at a time in process")
}

// phase calls run(i) for every program index, round after round, until d
// has passed, and round (when non-nil) after each round. It always
// completes whole rounds so every program runs equally often.
func phase(d float64, n int, run func(i int), round func()) {
	start := time.Now()
	for {
		for i := 0; i < n; i++ {
			run(i)
		}
		if round != nil {
			round()
		}
		if time.Since(start).Seconds() >= d {
			return
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
