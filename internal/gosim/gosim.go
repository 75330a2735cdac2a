// Package gosim is the true compiled simulator: it translates one
// decoded program plus its model's ACTIVATION timing into specialized Go
// source — one function per distinct instruction word, pipeline state
// flattened into package-level variables, the coding tree resolved into a
// switch at generation time — builds it with the host Go toolchain into a
// standalone runner, and keeps the runner resident as a subprocess that
// serves one run after another over a small NDJSON protocol
// (protocol.go): a batch pays the build once per program and the process
// start once per concurrent worker. This is the paper's compiled-
// simulation principle taken to its conclusion: where sim's compiled mode
// runs each bound instance's threaded code inside the generic scheduler,
// gosim emits straight-line host code the Go compiler optimizes per
// (model, program) pair. Both start from the one typed lowering of
// behaviors in internal/behavior; gosim lowers with calls inlined.
//
// When the toolchain is unavailable, or the program is too short to
// amortize a build, the same IR runs in process as the threaded code sim
// executes (interp.go), with identical semantics — the IR Machine is
// also the reference the emitted runner is cross-checked against.
//
// Models outside the statically schedulable class (multiple pipelines,
// data-dependent delays, stalls/flushes, loops and other statements the
// emitter does not render) fail Compile with an error wrapping
// ErrUnsupported; callers fall back to the classic simulator.
package gosim

import (
	"errors"
	"fmt"
	"time"
)

// ErrUnsupported marks a (model, program) pair outside gosim's statically
// schedulable class. Callers match it with errors.Is and fall back to the
// interpretive/compiled engines.
var ErrUnsupported = errors.New("unsupported by the generated-code simulator")

// DefaultMinBuildWords is the engine's build threshold: programs
// shorter than this run on the IR interpreter, since a `go build` costs
// far more than the whole simulation.
const DefaultMinBuildWords = 4

// Options shapes one Engine.
type Options struct {
	// OnPrint receives each print() line as it retires; nil collects
	// lines only into Result.Prints.
	OnPrint func(string)
	// OnCycleState, when non-nil, receives the architectural state after
	// every completed control step (slot-indexed scalars and memories) —
	// the lockstep cross-check hook. The native runner streams the same
	// states over the protocol's trace lines, so the hook observes
	// identical sequences on either backend.
	OnCycleState func(cycle uint64, scalars []uint64, arrays [][]uint64)
}

// Result is the outcome of one Engine run.
type Result struct {
	Steps  uint64
	Halted bool
	Prints []string
	// RunNs is the self-timed duration of the pure run loop in
	// nanoseconds: the native runner times itself around its step loop
	// (build, exec and protocol costs excluded), the IR path times
	// Machine.Run.
	RunNs int64
	// Native reports that the run executed the built subprocess runner.
	Native bool
	// CacheHit reports that the runner binary came from the cache without
	// invoking `go build` in this process.
	CacheHit bool
	// Fallback explains why the engine ran on the IR interpreter
	// instead of a native runner; empty on native runs.
	Fallback string
	// Scalars and Arrays are the final architectural state, slot-indexed
	// like model.State.
	Scalars []uint64
	Arrays  [][]uint64
	// Penalty is the per-cause penalty-cycle breakdown. The supported
	// model class excludes stall and flush constructs, so it is empty
	// today; the field keeps the result protocol stable for when the
	// class grows.
	Penalty map[string]uint64
}

// Engine runs one compiled Program on a native runner when the program
// is at least DefaultMinBuildWords long and its runner is cached or the
// Go toolchain is on PATH to build it, and on the in-process IR
// interpreter otherwise. Engines are cheap; the
// expensive artifacts (the Program, the runner binary and its resident
// processes) are shared through the Program itself and the Cache.
type Engine struct {
	P     *Program
	Cache *Cache
	Opt   Options
}

// NewEngine creates an engine over a compiled program. cache may be nil,
// which confines the engine to the IR interpreter.
func NewEngine(p *Program, cache *Cache, opt Options) *Engine {
	return &Engine{P: p, Cache: cache, Opt: opt}
}

// Run executes up to max control steps and returns the result. The
// engine degrades to the IR interpreter on any native-path obstacle,
// recording the reason in Result.Fallback.
func (e *Engine) Run(max uint64) (*Result, error) {
	reason := e.nativeObstacle()
	if reason == "" {
		res, err := e.runNative(max)
		if err == nil || res != nil {
			// res != nil with an error is a simulation error (a runtime "e"
			// line): the IR backend would reproduce it, so it is final.
			return res, err
		}
		reason = err.Error()
	}
	res, err := e.runIR(max)
	if res != nil {
		res.Fallback = reason
	}
	return res, err
}

// nativeObstacle reports why the native path cannot run ("" = it can).
func (e *Engine) nativeObstacle() string {
	if e.Cache == nil {
		return "no runner cache configured"
	}
	if len(e.P.Words) < DefaultMinBuildWords {
		return fmt.Sprintf("program has %d words, below the %d-word build threshold", len(e.P.Words), DefaultMinBuildWords)
	}
	return ""
}

// runIR executes on the in-process threaded-code interpreter.
func (e *Engine) runIR(max uint64) (*Result, error) {
	m := e.P.NewMachine()
	res := &Result{}
	m.OnPrint = func(line string) {
		res.Prints = append(res.Prints, line)
		if e.Opt.OnPrint != nil {
			e.Opt.OnPrint(line)
		}
	}
	if cb := e.Opt.OnCycleState; cb != nil {
		m.OnCycle = func(mm *Machine) {
			cb(mm.Cycles(), mm.Scalars(), mm.Arrays())
		}
	}
	start := time.Now()
	steps, err := m.Run(max)
	res.RunNs = time.Since(start).Nanoseconds()
	res.Steps = steps
	res.Halted = m.Halted()
	res.Scalars = m.Scalars()
	res.Arrays = m.Arrays()
	if err != nil {
		return res, err
	}
	return res, nil
}

// runNative checks a resident runner out of the cache, serves the run on
// it and checks it back in. A runner that reported a runtime error, broke
// the protocol or died is killed and dropped, never reused.
func (e *Engine) runNative(max uint64) (*Result, error) {
	pr, hit, err := e.Cache.checkout(e.P)
	if err != nil {
		return nil, err
	}
	res := &Result{Native: true, CacheHit: hit}
	err = pr.run(max, e.Opt, res)
	if err == nil {
		e.Cache.checkin(pr)
		return res, nil
	}
	e.Cache.kill(pr)
	var rt *runtimeError
	if errors.As(err, &rt) {
		// A runtime "e" line is a simulation error, not a native-path
		// failure: the partial result travels with it, like the IR path.
		return res, err
	}
	return nil, err
}
