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
// gosim runs nothing in process. When no runner can serve a run (no
// cache, a program too short to amortize a build, no toolchain to build
// one, a failed build or a broken protocol), Engine.Run returns an error
// wrapping ErrNoRunner; callers fall back to sim's compiled engine, the
// one in-process scheduler.
//
// Models outside the statically schedulable class (multiple pipelines,
// data-dependent delays, stalls/flushes, loops and other statements the
// emitter does not render) fail Compile with an error wrapping
// ErrUnsupported; callers fall back the same way.
package gosim

import (
	"errors"
	"fmt"
)

// ErrUnsupported marks a (model, program) pair outside gosim's statically
// schedulable class. Callers match it with errors.Is and fall back to the
// interpretive/compiled engines.
var ErrUnsupported = errors.New("unsupported by the generated-code simulator")

// ErrNoRunner marks a run no native runner could serve. The wrapping
// error carries the reason; callers match it with errors.Is and run the
// program on sim's compiled engine instead.
var ErrNoRunner = errors.New("no native runner")

// DefaultMinBuildWords is the engine's build threshold: programs
// shorter than this get no runner, since a `go build` costs far more
// than the whole simulation.
const DefaultMinBuildWords = 4

// Options shapes one Engine.
type Options struct {
	// OnPrint receives each print() line as it retires; nil collects
	// lines only into Result.Prints.
	OnPrint func(string)
	// OnCycleState, when non-nil, receives the architectural state after
	// every completed control step (slot-indexed scalars and memories) —
	// the lockstep cross-check hook, fed from the protocol's trace lines.
	OnCycleState func(cycle uint64, scalars []uint64, arrays [][]uint64)
}

// Result is the outcome of one Engine run.
type Result struct {
	Steps  uint64
	Halted bool
	Prints []string
	// RunNs is the self-timed duration of the pure run loop in
	// nanoseconds: the native runner times itself around its step loop
	// (build, exec and protocol costs excluded).
	RunNs int64
	// Deprecated: Native is true on every result; a run no runner could
	// serve returns an error wrapping ErrNoRunner instead.
	Native bool
	// CacheHit reports that the runner binary came from the cache without
	// invoking `go build` in this process.
	CacheHit bool
	// Deprecated: Fallback is always empty; the reason a run had no
	// runner is the text of its ErrNoRunner error.
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

// Engine runs one compiled Program on a native runner, which needs the
// program to be at least DefaultMinBuildWords long and its runner to be
// cached or the Go toolchain to be on PATH to build it. Engines are
// cheap; the expensive artifacts (the Program, the runner binary and its
// resident processes) are shared through the Program itself and the
// Cache.
type Engine struct {
	P     *Program
	Cache *Cache
	Opt   Options
}

// NewEngine creates an engine over a compiled program. cache may be nil,
// in which case every run fails with ErrNoRunner.
func NewEngine(p *Program, cache *Cache, opt Options) *Engine {
	return &Engine{P: p, Cache: cache, Opt: opt}
}

// Run executes up to max control steps on a native runner and returns
// the result. When no runner can serve the run, it returns a nil result
// and an error wrapping ErrNoRunner that names the reason. A runtime
// error the runner reports is the simulation's own: it comes with the
// partial result and is final.
func (e *Engine) Run(max uint64) (*Result, error) {
	if e.Cache == nil {
		return nil, fmt.Errorf("%w: no runner cache configured", ErrNoRunner)
	}
	if n := len(e.P.Words); n < DefaultMinBuildWords {
		return nil, fmt.Errorf("%w: program has %d words, below the %d-word build threshold", ErrNoRunner, n, DefaultMinBuildWords)
	}
	res, err := e.runNative(max)
	if err != nil && res == nil {
		return nil, fmt.Errorf("%w: %w", ErrNoRunner, err)
	}
	return res, err
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
		// failure: the partial result travels with it.
		return res, err
	}
	return nil, err
}
