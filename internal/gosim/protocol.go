package gosim

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// runnerVersion names the emitter and protocol generation. It is part of
// the runner cache key and of the runner's "h" header, so a binary built
// by a golisa with different emitted semantics or a different protocol is
// never reused. Bump it whenever EmitSource's output changes;
// TestRunnerSourcePinned fails until it is.
const runnerVersion = 2

// The runner protocol is NDJSON, one object per line. A resident runner
// writes its header once at start-up:
//
//	{"t":"h","v":V,"model":H,"prog":H}
//
// It then serves requests, one line each, until its stdin closes:
//
//	{"max":N,"trace":B}
//
// and answers each with zero or more c and p lines and exactly one r or e
// line:
//
//	{"t":"c","n":N,"sc":Z,"arr":[Z,..]}  trace: state after step N
//	{"t":"p","s":"line"}                 one print() line
//	{"t":"r","steps":N,"halted":B,"wall_ns":N,"sc":Z,"arr":[Z,..],"penalty":{}}
//	{"t":"e","msg":"...","steps":N}      runtime error after N steps
//
// Z is a zero-suppressed word array: the array's length, then runs of
// nonzero words in ascending offset order, each as offset, count and the
// words — [len, off, n, w1..wn, off, n, ...]. Line size therefore grows
// with the nonzero state, not with the declared memory size.
type wireLine struct {
	T      string            `json:"t"`
	V      int               `json:"v,omitempty"`
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

// wireShape is the state layout a runner's lines must match: the scalar
// count and each memory's length (0 for an absent slot). It bounds every
// allocation the reader makes: declared lengths must equal the shape, and
// no line may exceed maxLine bytes.
type wireShape struct {
	scalars int
	arrays  []int
	maxLine int
}

// shape derives the wire shape of p's state.
func (p *Program) shape() *wireShape {
	sh := &wireShape{scalars: len(p.scalars), arrays: make([]int, len(p.arrays))}
	words := len(p.scalars)
	for i, r := range p.arrays {
		if r != nil {
			sh.arrays[i] = int(r.Total())
			words += sh.arrays[i]
		}
	}
	// Worst case every other word is nonzero: each one costs an offset, a
	// count and a value of up to 20 digits plus separators.
	sh.maxLine = 64<<10 + 66*words
	return sh
}

// runtimeError is a simulation error the runner reported on an "e" line:
// the run itself failed, not the native path.
type runtimeError struct{ msg string }

func (e *runtimeError) Error() string { return "gosim: runner: " + e.msg }

// staleRunnerError is a handshake mismatch: the binary was built by a
// different emitter or for a different (model, program) pair.
type staleRunnerError struct{ detail string }

func (e *staleRunnerError) Error() string { return "gosim: stale runner: " + e.detail }

// readLine returns the next line of r without its newline, reusing *buf.
// It never grows *buf past limit+1 bytes: a longer line is an error.
func readLine(r *bufio.Reader, buf *[]byte, limit int) ([]byte, error) {
	b := (*buf)[:0]
	for {
		frag, err := r.ReadSlice('\n')
		need := len(b) + len(frag)
		if need > limit+1 {
			return nil, fmt.Errorf("gosim: runner protocol: line exceeds %d bytes", limit)
		}
		if need > cap(b) {
			nb := make([]byte, len(b), min(max(need, 2*cap(b)), limit+1))
			b = nb[:copy(nb, b)]
		}
		b = append(b, frag...)
		*buf = b
		switch {
		case err == nil:
			return b[:len(b)-1], nil
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		case errors.Is(err, io.EOF) && len(b) > 0:
			return nil, errors.New("gosim: runner protocol: truncated line at end of output")
		case errors.Is(err, io.EOF):
			return nil, errors.New("gosim: runner exited without a result line")
		default:
			return nil, fmt.Errorf("gosim: read runner output: %w", err)
		}
	}
}

// decodeLine parses one protocol line.
func decodeLine(line []byte) (*wireLine, error) {
	var ln wireLine
	if err := json.Unmarshal(line, &ln); err != nil {
		return nil, fmt.Errorf("gosim: runner protocol: %w", err)
	}
	return &ln, nil
}

// expand decodes a zero-suppressed array that must hold n words. A zero
// length decodes to nil, like an absent memory slot.
func expand(z []uint64, n int) ([]uint64, error) {
	if len(z) == 0 {
		return nil, errors.New("gosim: runner protocol: array without a length")
	}
	if z[0] != uint64(n) {
		return nil, fmt.Errorf("gosim: runner protocol: array length %d, want %d", z[0], n)
	}
	if n == 0 {
		if len(z) != 1 {
			return nil, errors.New("gosim: runner protocol: words in an empty array")
		}
		return nil, nil
	}
	out := make([]uint64, n)
	next := uint64(0) // runs ascend and do not overlap
	for i := 1; i < len(z); {
		if len(z)-i < 2 {
			return nil, errors.New("gosim: runner protocol: truncated run header")
		}
		off, cnt := z[i], z[i+1]
		i += 2
		if off < next || off >= uint64(n) || cnt == 0 || cnt > uint64(n)-off {
			return nil, fmt.Errorf("gosim: runner protocol: run [%d,+%d) outside the array's %d words", off, cnt, n)
		}
		if cnt > uint64(len(z)-i) {
			return nil, errors.New("gosim: runner protocol: truncated run")
		}
		copy(out[off:], z[i:i+int(cnt)])
		i += int(cnt)
		next = off + cnt
	}
	return out, nil
}

// state expands a line's scalars and memories against the shape.
func (sh *wireShape) state(ln *wireLine) ([]uint64, [][]uint64, error) {
	sc, err := expand(ln.Sc, sh.scalars)
	if err != nil {
		return nil, nil, err
	}
	if len(ln.Arr) != len(sh.arrays) {
		return nil, nil, fmt.Errorf("gosim: runner protocol: %d memories, want %d", len(ln.Arr), len(sh.arrays))
	}
	arr := make([][]uint64, len(sh.arrays))
	for i, n := range sh.arrays {
		if arr[i], err = expand(ln.Arr[i], n); err != nil {
			return nil, nil, err
		}
	}
	return sc, arr, nil
}

// readHeader consumes the runner's header line and checks that it was
// built by this emitter for the (model, program) pair.
func readHeader(r *bufio.Reader, buf *[]byte, sh *wireShape, modelHash, progHash string) error {
	line, err := readLine(r, buf, sh.maxLine)
	if err != nil {
		return err
	}
	ln, err := decodeLine(line)
	if err != nil {
		return err
	}
	switch {
	case ln.T != "h":
		return fmt.Errorf("gosim: runner protocol: first line has type %q, want a header", ln.T)
	case ln.V != runnerVersion:
		return &staleRunnerError{fmt.Sprintf("protocol version %d, want %d", ln.V, runnerVersion)}
	case ln.Model != modelHash || ln.Prog != progHash:
		return &staleRunnerError{fmt.Sprintf("built for (%s,%s), want (%s,%s)", ln.Model, ln.Prog, modelHash, progHash)}
	}
	return nil
}

// appendRequest renders one run request.
func appendRequest(b []byte, max uint64, trace bool) []byte {
	b = append(b, `{"max":`...)
	b = strconv.AppendUint(b, max, 10)
	b = append(b, `,"trace":`...)
	b = strconv.AppendBool(b, trace)
	return append(b, "}\n"...)
}

// readRun consumes one run's response: c and p lines up to the closing r
// line, which fills res, or e line, which returns a *runtimeError after
// recording the step count in res.
func readRun(r *bufio.Reader, buf *[]byte, sh *wireShape, opt Options, res *Result) error {
	for {
		line, err := readLine(r, buf, sh.maxLine)
		if err != nil {
			return err
		}
		ln, err := decodeLine(line)
		if err != nil {
			return err
		}
		switch ln.T {
		case "c":
			if opt.OnCycleState == nil {
				return errors.New("gosim: runner protocol: trace line in an untraced run")
			}
			sc, arr, err := sh.state(ln)
			if err != nil {
				return err
			}
			opt.OnCycleState(ln.N, sc, arr)
		case "p":
			res.Prints = append(res.Prints, ln.S)
			if opt.OnPrint != nil {
				opt.OnPrint(ln.S)
			}
		case "r":
			if res.Scalars, res.Arrays, err = sh.state(ln); err != nil {
				return err
			}
			res.Steps, res.Halted, res.RunNs, res.Penalty = ln.Steps, ln.Halted, ln.WallNs, ln.Pen
			return nil
		case "e":
			res.Steps = ln.Steps
			return &runtimeError{ln.Msg}
		default:
			return fmt.Errorf("gosim: runner protocol: unexpected line type %q", ln.T)
		}
	}
}
