// Package sim implements the retargetable simulators generated from LISA
// models: the control-step loop, activation scheduling with spatial-distance
// timing, the generic pipeline mechanisms, and both simulation techniques
// the paper contrasts — interpretive (decode every execution, walk the
// behavior AST) and compiled (decode once, pre-bind, and re-execute each
// bound instance's behavior as threaded code from the typed IR of
// internal/behavior, the lowering gosim's emitter also renders).
package sim

import (
	"fmt"

	"golisa/internal/ast"
	"golisa/internal/behavior"
	"golisa/internal/bitvec"
	"golisa/internal/coding"
	"golisa/internal/model"
	"golisa/internal/pipeline"
	"golisa/internal/trace"
)

// Mode selects the simulation technique.
type Mode int

// Simulation modes. Interpretive re-decodes the instruction word and walks
// the behavior AST on every execution — the paper's baseline and the
// reference every other engine is checked against. Compiled decodes once
// per distinct word, reuses the bound instance and runs its behavior as
// threaded code compiled once from the typed IR (the paper's
// compiled-simulation principle).
// Generated is the true compiled tier (internal/gosim): the program is
// translated to specialized Go code and run by a native runner. A
// sim.Simulator built in Generated mode behaves exactly like Compiled —
// it is the in-process engine the generated tier falls back to when a
// model or program is outside the static-schedule class gosim can
// translate, when no native runner can serve the run, or when the run
// needs an in-process observer.
//
// The values are stored in .lrec headers. Value 1 belonged to a retired
// decode-cache-only engine and stays unassigned.
const (
	Interpretive Mode = 0
	Compiled     Mode = 2
	Generated    Mode = 3

	// Deprecated: CompiledPrebound is the former name of Compiled.
	CompiledPrebound = Compiled
)

// modeNames maps every accepted mode name to its mode: the canonical
// names String returns, plus legacy aliases of Compiled.
var modeNames = map[string]Mode{
	"interpretive":      Interpretive,
	"compiled":          Compiled,
	"generated":         Generated,
	"prebound":          Compiled,
	"compiled+prebound": Compiled,
}

// ValidModes lists the canonical mode names, in help-text order.
const ValidModes = "interpretive, compiled, generated"

// ParseMode maps a mode name — a -mode flag value, a batch manifest's
// "mode" — to a simulation mode. Legacy aliases of Compiled are accepted.
func ParseMode(name string) (Mode, error) {
	if m, ok := modeNames[name]; ok {
		return m, nil
	}
	return 0, fmt.Errorf("unknown mode %q (valid modes: %s)", name, ValidModes)
}

func (m Mode) String() string {
	switch m {
	case Interpretive:
		return "interpretive"
	case Compiled:
		return "compiled"
	case Generated:
		return "generated"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Profile collects execution statistics.
type Profile struct {
	Steps       uint64            // control steps executed
	Execs       map[string]uint64 // operation executions by name
	Decodes     uint64            // coding-root decode operations performed
	DecodeHits  uint64            // decode-cache hits (zero in interpretive mode)
	Activations uint64            // scheduled activations
	Retired     uint64            // packets retired from last pipeline stages

	// Pipeline mechanism counts, aggregated over all pipelines.
	Stalls  uint64 // stall requests (stage or whole-pipe)
	Flushes uint64 // flush requests
	Shifts  uint64 // granted shifts

	// RetiredByStage counts retired packets per retiring stage, keyed by
	// the canonical "pipe.stage" signal name of each pipe's last stage.
	RetiredByStage map[string]uint64

	// Artifact-sharing counters. SharedDecodeHits is the subset of
	// DecodeHits served from a shared artifact's pre-warmed cache;
	// Compiles counts behaviors and activation expressions compiled by
	// this simulator at run time (code pre-compiled into an artifact does
	// not count). A fully pre-warmed compiled fleet job keeps
	// both Decodes and Compiles at zero — the zero-recompilation property
	// the fleet asserts.
	SharedDecodeHits uint64
	Compiles         uint64
}

// runItem is one pending execution with its pipeline context.
type runItem struct {
	inst   *model.Instance
	pipe   *pipeline.Pipe
	stage  int
	packet *pipeline.Packet

	// pipeOp, when set, is a deferred pipeline operation instead of an
	// instance execution.
	pipeOp *pipeOpSpec
}

type pipeOpSpec struct {
	pipe  *pipeline.Pipe
	stage int
	op    string

	// info is the hazard attribution captured at request time (the
	// requesting operation's guards and packet are gone by the time a
	// delayed pipe op fires from the time wheel).
	info trace.StallInfo
}

// Simulator executes a LISA model cycle by cycle.
type Simulator struct {
	M *model.Model
	S *model.State

	// MainOp is the operation executed every control step (default "main").
	MainOp string
	// ResetOp, when present in the model, runs once at Reset (default
	// "reset").
	ResetOp string
	// HaltResource, when present in the model, stops Run when nonzero
	// (default "halt").
	HaltResource string

	// OnPrint receives output of the print(...) builtin; nil discards.
	OnPrint func(string)
	// OnStep runs after every completed control step (tracing hook).
	OnStep func(step uint64)
	// OnDecoded, when non-nil, receives the bound instance every coding-root
	// decode produced (cache hits included) — the decode-side seam the
	// coverage collector uses to see which coding-tree leaves a word
	// selected, information the string-typed OnDecode event cannot carry.
	// Implementations must not mutate the instance. A simulation without
	// the hook pays one nil check per decode.
	OnDecoded func(in *model.Instance)
	// Gate, when non-nil, is invoked at the top of every control step,
	// before any event of that step is emitted, and may block — it is the
	// run-control seam debuggers use to pause, single-step and break a
	// simulation driven from another goroutine (see internal/debug). An
	// ungated simulation pays one nil check per control step.
	Gate func(step uint64)

	mode    Mode
	x       *behavior.Exec
	dec     *coding.Decoder
	pipes   []*pipeline.Pipe
	pipeFor map[*model.Pipeline]*pipeline.Pipe

	wheel    map[uint64][]runItem
	runQ     []runItem
	runHead  int
	readyBuf []pipeline.ReadyEntry
	step     uint64
	cur      runItem // execution context of the instance currently running
	prof     Profile
	execs    map[*model.Operation]uint64
	obs      trace.Observer // nil = uninstrumented fast path
	occBuf   []bool         // reused occupancy sample buffer

	// Hazard-attribution context, maintained only while an observer is
	// attached: the stack of ACTIVATION conditions enclosing the item
	// currently processed, and a per-expression cache of the resources a
	// guard reads (guard ASTs are immutable, so the scan runs once).
	actGuards []ast.Expr
	guardRes  map[ast.Expr][]string

	decodeCache map[decodeKey]*model.Instance
	staticInst  map[*model.Operation]*model.Instance
	halt        *model.Resource

	// Read-only views into a shared Artifact (nil for standalone
	// simulators). Lookups consult these before the private maps above;
	// misses are cached privately, so concurrent simulators never write
	// to shared memory.
	sharedDecode map[decodeKey]*model.Instance
	sharedStatic map[*model.Operation]*model.Instance
}

type decodeKey struct {
	op   *model.Operation
	word uint64
}

// New creates a simulator for the model in the given mode, with all caches
// private (and therefore cold). Batch workloads that run many programs on
// one model should build a shared Artifact once and use NewFromArtifact
// instead.
func New(m *model.Model, mode Mode) *Simulator {
	return newSimulator(m, mode, nil)
}

// newSimulator builds the per-run state; a non-nil artifact contributes
// the shared decoder, static instances, decode cache and compiled
// behavior code.
func newSimulator(m *model.Model, mode Mode, a *Artifact) *Simulator {
	s := &Simulator{
		M:            m,
		S:            model.NewState(m),
		MainOp:       "main",
		ResetOp:      "reset",
		HaltResource: "halt",
		mode:         mode,
		pipeFor:      map[*model.Pipeline]*pipeline.Pipe{},
		wheel:        map[uint64][]runItem{},
		decodeCache:  map[decodeKey]*model.Instance{},
		staticInst:   map[*model.Operation]*model.Instance{},
		execs:        map[*model.Operation]uint64{},
	}
	if a != nil {
		s.dec = a.dec
		s.sharedDecode = a.decode
		s.sharedStatic = a.static
	} else {
		s.dec = coding.NewDecoder(m)
	}
	for _, pd := range m.Pipelines {
		p := pipeline.New(pd)
		s.pipes = append(s.pipes, p)
		s.pipeFor[pd] = p
	}
	s.x = &behavior.Exec{M: m, S: s.S, Ctx: (*simCtx)(s)}
	if a != nil {
		s.x.Shared = a.shared
	}
	s.halt = m.Resource(s.HaltResource)
	return s
}

// Mode returns the simulation mode.
func (s *Simulator) Mode() Mode { return s.mode }

// SetObserver attaches a trace.Observer to the simulator, the pipelines,
// the behavior engine and the machine state, or detaches everything when
// o is nil. The observer receives OnAttach with the model's pipeline
// topology immediately. With no observer attached every hook site costs
// one nil check.
func (s *Simulator) SetObserver(o trace.Observer) {
	s.SwapObserver(o)
	if o == nil {
		return
	}
	infos := make([]trace.PipeInfo, len(s.pipes))
	for i, p := range s.pipes {
		infos[i] = trace.PipeInfo{Name: p.Def.Name, Stages: p.Def.Stages}
	}
	o.OnAttach(s.M.Name, infos)
}

// SwapObserver installs (or, with nil, removes) an observer WITHOUT
// firing OnAttach, and returns the previously attached one. Run-control
// tooling uses it to detach observers around checkpoint-restore catch-up
// re-execution and put them back untouched — re-announcing OnAttach would
// reset stateful observers such as the metrics collector.
func (s *Simulator) SwapObserver(o trace.Observer) trace.Observer {
	prev := s.obs
	s.obs = o
	for _, p := range s.pipes {
		p.Obs = o
	}
	if o == nil {
		s.x.Obs = nil
		s.S.OnWrite = nil
		s.S.OnWriteElem = nil
		return prev
	}
	s.x.Obs = o
	s.S.OnWrite = func(r *model.Resource, v uint64) { o.OnResourceWrite(r.Name, v) }
	s.S.OnWriteElem = func(r *model.Resource, addr uint64, v uint64) { o.OnMemWrite(r.Name, addr, v) }
	return prev
}

// Observer returns the attached observer, or nil.
func (s *Simulator) Observer() trace.Observer { return s.obs }

// Profile returns a copy of the collected statistics, including the
// pipeline mechanism counters aggregated from the runtime pipes.
func (s *Simulator) Profile() Profile {
	p := s.prof
	p.Compiles = s.x.Compiles
	p.Execs = make(map[string]uint64, len(s.execs))
	for op, v := range s.execs {
		p.Execs[op.Name] = v
	}
	p.RetiredByStage = map[string]uint64{}
	for _, pipe := range s.pipes {
		p.Stalls += pipe.Stalls
		p.Flushes += pipe.Flushes
		p.Shifts += pipe.Shifts
		if pipe.Retires > 0 {
			stages := pipe.Def.Stages
			p.RetiredByStage[trace.StageTrack(pipe.Def.Name, stages[len(stages)-1])] = pipe.Retires
		}
	}
	return p
}

// Step returns the current control-step number.
func (s *Simulator) Step() uint64 { return s.step }

// Reset zeroes state, clears pipelines and schedules, and runs the model's
// reset operation if it exists.
func (s *Simulator) Reset() error {
	s.S.Reset()
	for _, p := range s.pipes {
		p.Reset()
	}
	s.wheel = map[uint64][]runItem{}
	s.runQ = nil
	s.runHead = 0
	s.actGuards = s.actGuards[:0]
	s.step = 0
	s.prof = Profile{}
	s.x.Compiles = 0
	s.execs = map[*model.Operation]uint64{}
	if op, ok := s.M.Ops[s.ResetOp]; ok {
		if err := s.execute(runItem{inst: s.static(op)}); err != nil {
			return err
		}
		// Latch writes from reset take effect immediately.
		s.S.Commit()
	}
	return nil
}

// Halted reports whether the model's halt resource is nonzero.
func (s *Simulator) Halted() bool {
	return s.halt != nil && s.S.Read(s.halt).Bool()
}

// Run executes control steps until the halt resource becomes nonzero or
// maxSteps steps have run. It returns the number of steps executed.
func (s *Simulator) Run(maxSteps uint64) (uint64, error) {
	var n uint64
	for n < maxSteps {
		if s.Halted() {
			return n, nil
		}
		if err := s.RunStep(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// RunStep executes exactly one control step.
func (s *Simulator) RunStep() error {
	if s.Gate != nil {
		s.Gate(s.step)
	}
	if s.obs != nil {
		s.obs.OnStepBegin(s.step)
	}
	for _, p := range s.pipes {
		p.BeginStep()
	}
	s.runQ = s.runQ[:0]
	s.runHead = 0

	// 1. The main operation initiates each control step.
	if op, ok := s.M.Ops[s.MainOp]; ok {
		s.enqueue(runItem{inst: s.static(op)})
	}
	if err := s.drain(); err != nil {
		return err
	}

	// 2. Time-wheel entries due this step (delayed activations).
	if due, ok := s.wheel[s.step]; ok {
		delete(s.wheel, s.step)
		for _, it := range due {
			s.enqueue(it)
		}
		if err := s.drain(); err != nil {
			return err
		}
	}

	// 3. Pipeline packets: execute entries sitting in their stages, to a
	// fixpoint (an executing entry can insert more work for this step).
	for {
		ready := 0
		for _, p := range s.pipes {
			s.readyBuf = p.ReadyAppend(s.readyBuf[:0])
			for _, r := range s.readyBuf {
				r.Entry.MarkExecuted()
				ready++
				if r.Entry.Extra > 0 {
					s.schedule(s.step+uint64(r.Entry.Extra), runItem{
						inst: r.Entry.Inst, pipe: p, stage: r.Entry.StageIdx,
					})
					continue
				}
				s.enqueue(runItem{inst: r.Entry.Inst, pipe: p, stage: r.Stage, packet: r.Packet})
			}
		}
		if ready == 0 {
			break
		}
		if err := s.drain(); err != nil {
			return err
		}
	}

	// 4. End of step: commit latch writes, shifts, stall clearing,
	// retirement. Occupancy is sampled first, while the packets still sit
	// in the stages they occupied during this step.
	if s.obs != nil {
		for i, p := range s.pipes {
			s.occBuf = p.OccupancyAppend(s.occBuf[:0])
			s.obs.OnOccupancy(i, s.occBuf)
		}
	}
	s.S.Commit()
	for _, p := range s.pipes {
		if p.EndStep() != nil {
			s.prof.Retired++
		}
	}
	s.step++
	s.prof.Steps++
	if s.obs != nil {
		s.obs.OnStepEnd(s.step - 1)
	}
	if s.OnStep != nil {
		s.OnStep(s.step)
	}
	return nil
}

func (s *Simulator) enqueue(it runItem) { s.runQ = append(s.runQ, it) }

func (s *Simulator) schedule(step uint64, it runItem) {
	s.prof.Activations++
	s.wheel[step] = append(s.wheel[step], it)
}

func (s *Simulator) drain() error {
	for s.runHead < len(s.runQ) {
		it := s.runQ[s.runHead]
		s.runHead++
		if it.pipeOp != nil {
			s.applyPipeOp(*it.pipeOp)
			continue
		}
		if err := s.execute(it); err != nil {
			return err
		}
	}
	s.runQ = s.runQ[:0]
	s.runHead = 0
	return nil
}

// static returns the shared unbound instance for an operation (instances
// are immutable after binding, so sharing is safe). Artifact-backed
// simulators use the artifact's pre-resolved instances; operations the
// artifact could not pre-bind fall back to a private lazy instance.
func (s *Simulator) static(op *model.Operation) *model.Instance {
	if in, ok := s.sharedStatic[op]; ok {
		return in
	}
	if in, ok := s.staticInst[op]; ok {
		return in
	}
	in := model.NewInstance(op)
	s.staticInst[op] = in
	return in
}

// execute runs one instance: decode (for coding roots), behavior, then
// activation processing.
func (s *Simulator) execute(it runItem) error {
	in := it.inst
	op := in.Op

	if op.IsCodingRoot {
		decoded, err := s.decodeRoot(op)
		if err != nil {
			return fmt.Errorf("step %d: %w", s.step, err)
		}
		in = decoded
		it.inst = decoded
	}

	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return fmt.Errorf("step %d: %w", s.step, err)
		}
	}

	prev := s.cur
	s.cur = it
	defer func() { s.cur = prev }()

	if s.obs != nil {
		pipeIdx, pkt := -1, uint64(0)
		if it.pipe != nil {
			pipeIdx = it.pipe.Def.Index
		}
		if it.packet != nil {
			pkt = it.packet.ID
		}
		s.obs.OnExec(op.Name, pipeIdx, it.stage, pkt)
	}
	s.execs[op]++
	if err := s.runBehavior(in); err != nil {
		return fmt.Errorf("step %d, operation %s: %w", s.step, op.Name, err)
	}
	if in.Variant.Activation != nil {
		if err := s.processActivation(in, in.Variant.Activation.Items, it); err != nil {
			return fmt.Errorf("step %d, operation %s: %w", s.step, op.Name, err)
		}
	}
	return nil
}

// runBehavior dispatches to the mode's execution engine: the AST walker
// in interpretive mode, the behavior compiled to threaded code otherwise.
func (s *Simulator) runBehavior(in *model.Instance) error {
	if s.mode == Interpretive {
		return s.x.Run(in)
	}
	return behavior.RunCompiled(s.x, in)
}

// decodeRoot reads the root's compared resource and decodes it into a bound
// instance, using the decode cache outside interpretive mode.
func (s *Simulator) decodeRoot(op *model.Operation) (*model.Instance, error) {
	if op.RootResource == nil {
		return nil, fmt.Errorf("coding root %s has no resource", op.Name)
	}
	word := s.S.Read(op.RootResource)
	if s.mode != Interpretive {
		key := decodeKey{op, word.Uint()}
		in, ok := s.sharedDecode[key]
		if ok {
			s.prof.SharedDecodeHits++
		} else {
			in, ok = s.decodeCache[key]
		}
		if ok {
			s.prof.DecodeHits++
			if s.obs != nil {
				s.obs.OnDecode(op.Name, word.Uint(), true)
			}
			if s.OnDecoded != nil {
				s.OnDecoded(in)
			}
			return in, nil
		}
		in, err := s.dec.DecodeRoot(op, word)
		if err != nil {
			return nil, err
		}
		s.prof.Decodes++
		if s.obs != nil {
			s.obs.OnDecode(op.Name, word.Uint(), false)
		}
		if s.OnDecoded != nil {
			s.OnDecoded(in)
		}
		s.decodeCache[key] = in
		return in, nil
	}
	s.prof.Decodes++
	if s.obs != nil {
		s.obs.OnDecode(op.Name, word.Uint(), false)
	}
	in, err := s.dec.DecodeRoot(op, word)
	if err != nil {
		return nil, err
	}
	if s.OnDecoded != nil {
		s.OnDecoded(in)
	}
	return in, nil
}

// --- activation processing -----------------------------------------------------

func (s *Simulator) processActivation(in *model.Instance, items []ast.ActItem, ctx runItem) error {
	for _, item := range items {
		switch it := item.(type) {
		case *ast.ActRef:
			target, err := s.resolveActTarget(in, it.Name)
			if err != nil {
				return err
			}
			s.activate(in, target, it.Delay, ctx)
		case *ast.ActPipeOp:
			pd := s.M.Pipeline(it.Pipe)
			p := s.pipeFor[pd]
			if p == nil {
				return fmt.Errorf("unknown pipeline %s", it.Pipe)
			}
			stage := -1
			if it.Stage != "" {
				stage = pd.StageIndex(it.Stage)
			}
			spec := pipeOpSpec{pipe: p, stage: stage, op: it.Op}
			if s.obs != nil {
				spec.info = s.pipeOpInfo(it.Op, false)
			}
			if it.Delay > 0 {
				s.schedule(s.step+uint64(it.Delay), runItem{pipeOp: &spec})
			} else {
				s.applyPipeOp(spec)
			}
		case *ast.ActIf:
			cond, err := s.evalCond(in, it.Cond)
			if err != nil {
				return err
			}
			branch := it.Then
			if !cond {
				branch = it.Else
			}
			// The branch runs with its condition on the guard stack so
			// stall/flush requests inside attribute to the condition's
			// resources (popped on every exit path).
			track := s.obs != nil
			if track {
				s.actGuards = append(s.actGuards, it.Cond)
			}
			err = s.processActivation(in, branch, ctx)
			if track {
				s.actGuards = s.actGuards[:len(s.actGuards)-1]
			}
			if err != nil {
				return err
			}
		case *ast.ActSwitch:
			tag, err := s.evalValue(in, it.Tag)
			if err != nil {
				return err
			}
			var deflt *ast.ActCase
			var chosen []ast.ActItem
			matched := false
			for i := range it.Cases {
				c := &it.Cases[i]
				if c.Default {
					deflt = c
					continue
				}
				for _, ve := range c.Vals {
					cv, err := s.evalValue(in, ve)
					if err != nil {
						return err
					}
					if cv.Uint() == tag.Uint() {
						matched = true
						chosen = c.Items
						break
					}
				}
				if matched {
					break
				}
			}
			if !matched && deflt != nil {
				chosen = deflt.Items
			}
			if chosen != nil {
				track := s.obs != nil
				if track {
					s.actGuards = append(s.actGuards, it.Tag)
				}
				err := s.processActivation(in, chosen, ctx)
				if track {
					s.actGuards = s.actGuards[:len(s.actGuards)-1]
				}
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// evalCond evaluates an activation condition, using compiled code
// outside interpretive mode.
func (s *Simulator) evalCond(in *model.Instance, e ast.Expr) (bool, error) {
	if s.mode == Interpretive {
		return s.x.EvalCond(in, e)
	}
	return s.x.EvalCondCompiled(in, e)
}

// evalValue evaluates an activation switch tag/case value.
func (s *Simulator) evalValue(in *model.Instance, e ast.Expr) (bitvec.Value, error) {
	if s.mode == Interpretive {
		return s.x.EvalValue(in, e)
	}
	return s.x.EvalValueCompiled(in, e)
}

func (s *Simulator) resolveActTarget(in *model.Instance, name string) (*model.Instance, error) {
	if child, ok := in.Bindings[name]; ok {
		return child, nil
	}
	if op, ok := s.M.Ops[name]; ok {
		return s.static(op), nil
	}
	return nil, fmt.Errorf("activation of unknown operation %s", name)
}

// activate schedules a target instance according to the paper's timing
// rules: delay equals the spatial distance between the activator's stage and
// the target's stage (same pipeline); unassigned activators insert a packet
// at stage 0 of the target's pipeline in the current step; cross-pipeline
// activations latch into stage 0 of the other pipeline for the next step.
// extra adds whole control steps (the ';' delayed-activation operator).
// src is the activator whose ACTIVATION section requested the edge.
func (s *Simulator) activate(src, target *model.Instance, extra int, ctx runItem) {
	s.prof.Activations++
	top := target.Op
	if s.obs != nil {
		trace.EmitActivate(s.obs, src.Op.Name, top.Name, uint64(extra))
	}
	if !top.HasStage() {
		// Unassigned target: same control step (plus explicit delay).
		if extra == 0 {
			s.enqueue(runItem{inst: target})
		} else {
			s.schedule(s.step+uint64(extra), runItem{inst: target})
		}
		return
	}
	q := s.pipeFor[top.Pipe]
	j := top.StageIdx

	switch {
	case ctx.pipe == nil:
		// Unassigned activator (e.g. main): ride a fresh/merged packet from
		// stage 0 this step.
		e := &pipeline.Entry{Inst: target, StageIdx: j, Extra: extra}
		q.InsertFront(e)
		if j == 0 {
			e.MarkExecuted()
			if extra == 0 {
				s.enqueue(runItem{inst: target, pipe: q, stage: 0, packet: q.Slots[0]})
			} else {
				s.schedule(s.step+uint64(extra), runItem{inst: target, pipe: q, stage: 0})
			}
		}
	case s.cur.pipe == q || ctx.pipe == q:
		// Same pipeline: attach to the activator's packet when the target
		// stage is downstream; execute now when at or behind the current
		// stage.
		i := ctx.stage
		if j > i && ctx.packet != nil {
			e := &pipeline.Entry{Inst: target, StageIdx: j, Extra: extra}
			ctx.packet.Add(e)
			return
		}
		delay := j - i
		if delay < 0 {
			delay = 0
		}
		delay += extra
		if delay == 0 {
			s.enqueue(runItem{inst: target, pipe: q, stage: j})
		} else {
			s.schedule(s.step+uint64(delay), runItem{inst: target, pipe: q, stage: j})
		}
	default:
		// Cross-pipeline: enter the other pipe's stage 0 next step.
		e := &pipeline.Entry{Inst: target, StageIdx: j, Extra: extra}
		q.LatchNext(e)
	}
}

func (s *Simulator) applyPipeOp(spec pipeOpSpec) {
	switch spec.op {
	case "shift":
		spec.pipe.RequestShift()
	case "stall":
		spec.pipe.StallCause(spec.stage, spec.info)
	case "flush":
		spec.pipe.FlushCause(spec.stage, spec.info)
	}
}

// --- behavior.Context implementation (via wrapper type) -------------------------

// simCtx adapts Simulator to behavior.Context.
type simCtx Simulator

func (c *simCtx) sim() *Simulator { return (*Simulator)(c) }

// PipeOp implements behavior.Context: pipeline built-ins called from
// behavior code apply immediately.
func (c *simCtx) PipeOp(pd *model.Pipeline, stage int, op string) error {
	s := c.sim()
	p := s.pipeFor[pd]
	if p == nil {
		return fmt.Errorf("pipeline %s not instantiated", pd.Name)
	}
	spec := pipeOpSpec{pipe: p, stage: stage, op: op}
	if s.obs != nil {
		spec.info = s.pipeOpInfo(op, true)
	}
	s.applyPipeOp(spec)
	return nil
}

// Print implements behavior.Context.
func (c *simCtx) Print(msg string) {
	if c.sim().OnPrint != nil {
		c.sim().OnPrint(msg)
	}
}

// CallOp implements behavior.Context: a direct behavior call executes the
// operation fully (decode for coding roots, behavior, activation) in the
// caller's pipeline context and control step.
func (c *simCtx) CallOp(op *model.Operation) error {
	s := c.sim()
	it := s.cur
	it.inst = s.static(op)
	return s.execute(it)
}

// CallInstance implements behavior.Context for bound group/reference calls.
func (c *simCtx) CallInstance(in *model.Instance) error {
	s := c.sim()
	it := s.cur
	it.inst = in
	return s.execute(it)
}

// --- convenience accessors -------------------------------------------------------

// SetScalar writes a scalar resource by name. It is the external-input
// poke API (co-simulation devices, test benches): with an observer
// attached the write is reported through OnResourceWrite so recorders can
// capture inputs that do not originate from the model's own behavior.
func (s *Simulator) SetScalar(name string, v uint64) error {
	r := s.M.Resource(name)
	if r == nil || r.IsMemory() {
		return fmt.Errorf("no scalar resource %s", name)
	}
	val := bitvec.New(v, r.Width)
	if s.obs != nil {
		s.obs.OnResourceWrite(r.Name, val.Uint())
	}
	s.S.WriteNow(r, val)
	return nil
}

// Scalar reads a scalar resource by name.
func (s *Simulator) Scalar(name string) (bitvec.Value, error) {
	r := s.M.Resource(name)
	if r == nil || r.IsMemory() {
		return bitvec.Value{}, fmt.Errorf("no scalar resource %s", name)
	}
	return s.S.Read(r), nil
}

// SetMem writes one element of a memory resource.
func (s *Simulator) SetMem(name string, addr, v uint64) error {
	r := s.M.Resource(name)
	if r == nil || !r.IsMemory() {
		return fmt.Errorf("no memory resource %s", name)
	}
	return s.S.WriteElem(r, addr, bitvec.New(v, r.Width))
}

// Mem reads one element of a memory resource.
func (s *Simulator) Mem(name string, addr uint64) (bitvec.Value, error) {
	r := s.M.Resource(name)
	if r == nil || !r.IsMemory() {
		return bitvec.Value{}, fmt.Errorf("no memory resource %s", name)
	}
	return s.S.ReadElem(r, addr)
}

// LoadProgram writes words into the named program memory starting at origin.
func (s *Simulator) LoadProgram(memName string, origin uint64, words []uint64) error {
	r := s.M.Resource(memName)
	if r == nil || !r.IsMemory() {
		return fmt.Errorf("no memory resource %s", memName)
	}
	for i, w := range words {
		if err := s.S.WriteElem(r, origin+uint64(i), bitvec.New(w, r.Width)); err != nil {
			return err
		}
	}
	return nil
}

// Pipes exposes the runtime pipelines (for tracing and tests).
func (s *Simulator) Pipes() []*pipeline.Pipe { return s.pipes }
