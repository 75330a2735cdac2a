// Package gosim is the true compiled simulator: it translates one
// decoded program plus its model's ACTIVATION timing into specialized Go
// source — one function per distinct instruction word, pipeline state
// flattened into package-level variables, the coding tree resolved into a
// switch at generation time — builds it with the host Go toolchain into a
// standalone runner, and executes the runner as a subprocess speaking a
// small NDJSON result protocol. This is the paper's compiled-simulation
// principle taken to its conclusion: where sim's compiled mode
// pre-binds closures inside the generic scheduler, gosim emits straight-
// line host code the Go compiler optimizes per (model, program) pair.
//
// When the toolchain is unavailable, or the program is too short to
// amortize a build, the same IR runs on an in-process threaded-code
// interpreter (interp.go) with identical semantics — the IR Machine is
// also the reference the emitted runner is cross-checked against.
//
// Models outside the statically schedulable class (multiple pipelines,
// data-dependent delays, stalls/flushes, behavior constructs the IR
// cannot express) fail Compile with an error wrapping ErrUnsupported;
// callers fall back to the classic simulator.
package gosim

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"time"
)

// ErrUnsupported marks a (model, program) pair outside gosim's statically
// schedulable class. Callers match it with errors.Is and fall back to the
// interpretive/compiled engines.
var ErrUnsupported = errors.New("unsupported by the generated-code simulator")

// Backend selects how an Engine executes.
type Backend int

const (
	// Auto builds and runs a native runner when the Go toolchain is on
	// PATH and the program is at least DefaultMinBuildWords long;
	// otherwise it runs the in-process IR interpreter.
	Auto Backend = iota
	// ForceIR always runs the in-process interpreter.
	ForceIR
	// ForceNative always builds and runs the subprocess runner, and
	// propagates build/exec failures instead of falling back.
	ForceNative
)

// DefaultMinBuildWords is the Auto-backend build threshold: programs
// shorter than this run on the IR interpreter, since a `go build` costs
// far more than the whole simulation.
const DefaultMinBuildWords = 4

// Options shapes one Engine.
type Options struct {
	Backend Backend
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
	// Fallback explains why an Auto engine ran on the IR interpreter
	// instead of a native runner; empty on native runs and ForceIR.
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

// Engine runs one compiled Program, choosing between the native runner
// and the in-process interpreter per Options. Engines are cheap; the
// expensive artifacts (the Program, the runner binary) are shared through
// the Program itself and the Cache.
type Engine struct {
	P     *Program
	Cache *Cache
	Opt   Options
}

// NewEngine creates an engine over a compiled program. cache may be nil,
// which confines Auto to the IR interpreter.
func NewEngine(p *Program, cache *Cache, opt Options) *Engine {
	return &Engine{P: p, Cache: cache, Opt: opt}
}

// Run executes up to max control steps and returns the result. Auto
// engines degrade to the IR interpreter on any native-path obstacle,
// recording the reason in Result.Fallback; ForceNative propagates it.
func (e *Engine) Run(max uint64) (*Result, error) {
	reason := e.nativeObstacle()
	if reason == "" {
		res, err := e.runNative(max)
		if err == nil || res != nil {
			// res != nil with an error is a simulation error (a runtime "e"
			// line): the IR backend would reproduce it, so it is final.
			return res, err
		}
		if e.Opt.Backend == ForceNative {
			return nil, err
		}
		reason = err.Error()
	}
	if e.Opt.Backend == ForceNative {
		return nil, fmt.Errorf("gosim: native backend unavailable: %s", reason)
	}
	res, err := e.runIR(max)
	if res != nil && e.Opt.Backend == Auto {
		res.Fallback = reason
	}
	return res, err
}

// nativeObstacle reports why the native path cannot run ("" = it can).
func (e *Engine) nativeObstacle() string {
	if e.Opt.Backend == ForceIR {
		return "backend forced to the IR interpreter"
	}
	if e.Cache == nil {
		return "no runner cache configured"
	}
	if e.Opt.Backend == Auto && len(e.P.Words) < DefaultMinBuildWords {
		return fmt.Sprintf("program has %d words, below the %d-word build threshold", len(e.P.Words), DefaultMinBuildWords)
	}
	if _, err := exec.LookPath("go"); err != nil {
		return "go toolchain not found in PATH"
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

// protocol line shapes (NDJSON, one object per line, discriminated by t):
//
//	{"t":"h","model":H,"prog":H}          header: runner identity
//	{"t":"c","n":N,"sc":[..],"arr":[[..]]} trace: state after step N
//	{"t":"p","s":"line"}                  one print() line
//	{"t":"r","steps":N,"halted":B,"wall_ns":N,"sc":[..],"arr":[[..]],"penalty":{}}
//	{"t":"e","msg":"...","steps":N}       runtime error after N steps
type protoLine struct {
	T      string            `json:"t"`
	Model  string            `json:"model,omitempty"`
	Prog   string            `json:"prog,omitempty"`
	N      uint64            `json:"n,omitempty"`
	S      string            `json:"s,omitempty"`
	Steps  uint64            `json:"steps,omitempty"`
	Halted bool              `json:"halted,omitempty"`
	WallNs int64             `json:"wall_ns,omitempty"`
	Sc     []uint64          `json:"sc,omitempty"`
	Arr    [][]uint64        `json:"arr,omitempty"`
	Pen    map[string]uint64 `json:"penalty,omitempty"`
	Msg    string            `json:"msg,omitempty"`
}

// runNative builds (or reuses) the runner binary and executes it.
func (e *Engine) runNative(max uint64) (*Result, error) {
	bin, hit, err := e.Cache.Runner(e.P)
	if err != nil {
		return nil, err
	}
	args := []string{"-max", strconv.FormatUint(max, 10)}
	if e.Opt.OnCycleState != nil {
		args = append(args, "-trace")
	}
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("gosim: runner pipe: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("gosim: start runner: %w", err)
	}
	res := &Result{Native: true, CacheHit: hit}
	var runErr error
	simErr := false // runErr came from a runtime "e" line, not the protocol
	sawResult := false
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ln protoLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			runErr = fmt.Errorf("gosim: runner protocol: %w", err)
			break
		}
		switch ln.T {
		case "h":
			if ln.Model != e.P.ModelHash || ln.Prog != e.P.ProgHash {
				runErr = fmt.Errorf("gosim: runner identity mismatch: built for (%s,%s), want (%s,%s)",
					ln.Model, ln.Prog, e.P.ModelHash, e.P.ProgHash)
			}
		case "c":
			if e.Opt.OnCycleState != nil {
				e.Opt.OnCycleState(ln.N, ln.Sc, ln.Arr)
			}
		case "p":
			res.Prints = append(res.Prints, ln.S)
			if e.Opt.OnPrint != nil {
				e.Opt.OnPrint(ln.S)
			}
		case "r":
			sawResult = true
			res.Steps = ln.Steps
			res.Halted = ln.Halted
			res.RunNs = ln.WallNs
			res.Scalars = ln.Sc
			res.Arrays = ln.Arr
			res.Penalty = ln.Pen
		case "e":
			res.Steps = ln.Steps
			simErr = true
			runErr = fmt.Errorf("gosim: runner: %s", ln.Msg)
		}
		if runErr != nil {
			break
		}
	}
	if err := sc.Err(); err != nil && runErr == nil {
		runErr = fmt.Errorf("gosim: read runner output: %w", err)
	}
	waitErr := cmd.Wait()
	if runErr != nil {
		if simErr {
			// A runtime "e" line is a simulation error, not a native-path
			// failure: the partial result travels with it, like the IR path.
			return res, runErr
		}
		return nil, runErr
	}
	if !sawResult {
		if waitErr != nil {
			return nil, fmt.Errorf("gosim: runner exited without a result: %w", waitErr)
		}
		return nil, fmt.Errorf("gosim: runner exited without a result line")
	}
	return res, nil
}
