package gosim

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Cache is the content-addressed runner store and the pool of resident
// runner processes. Runner binaries are keyed by (runner version, model
// hash, program hash) — the hashes are the perf-ledger ones the rest of
// the toolchain uses — so a fleet sharing one Cache builds each distinct
// (model, program) pair exactly once, no matter how many workers race on
// it, and a binary left by an earlier process of the same golisa is
// reused without invoking `go build` at all.
//
// A started runner stays resident and serves one run after another. Each
// key keeps a pool of idle runners: Engine.Run checks one out, starting a
// process only when none is idle, and checks it back in after a clean
// result. The pool therefore grows to the number of concurrent runs of a
// key and no further. Close ends every idle runner.
//
// Layout: <Dir>/v<runnerVersion>-<modelHash>-<progHash>/{main.go, go.mod, runner}.
type Cache struct {
	// Dir is the cache root.
	Dir string

	mu       sync.Mutex
	inflight map[string]*buildResult
	idle     map[string][]*proc
	closed   bool
	builds   atomic.Uint64
	starts   atomic.Uint64
	reaped   atomic.Uint64 // started runners that have been waited for
}

// buildResult memoizes one key's build outcome for the process lifetime.
// rebuild, once created, memoizes the single rebuild that replaces a
// binary whose handshake did not match.
type buildResult struct {
	once    sync.Once
	path    string
	hit     bool
	err     error
	rebuild *buildResult
}

// NewCache opens (or lazily creates) a runner cache rooted at dir. An
// empty dir selects the user cache directory (falling back to the system
// temp directory).
func NewCache(dir string) *Cache {
	if dir == "" {
		if base, err := os.UserCacheDir(); err == nil {
			dir = filepath.Join(base, "golisa", "gosim")
		} else {
			dir = filepath.Join(os.TempDir(), "golisa-gosim")
		}
	}
	return &Cache{Dir: dir, inflight: make(map[string]*buildResult), idle: make(map[string][]*proc)}
}

// Builds reports how many `go build` invocations this process has run —
// the fleet's zero-recompilation assertions count on it.
func (c *Cache) Builds() uint64 { return c.builds.Load() }

// Starts reports how many runner processes this cache has started.
func (c *Cache) Starts() uint64 { return c.starts.Load() }

func cacheKey(p *Program) string {
	return fmt.Sprintf("v%d-%s-%s", runnerVersion, p.ModelHash, p.ProgHash)
}

// Runner returns the path to the runner binary for p, building it if this
// is the first time the (model, program) pair is seen. cacheHit reports
// that the binary already existed and `go build` was not invoked by this
// call (whether from an earlier call in this process or a previous one).
func (c *Cache) Runner(p *Program) (path string, cacheHit bool, err error) {
	key := cacheKey(p)
	c.mu.Lock()
	br := c.inflight[key]
	first := false
	if br == nil {
		br = &buildResult{}
		c.inflight[key] = br
		first = true
	}
	c.mu.Unlock()
	br.once.Do(func() {
		br.path, br.hit, br.err = c.build(key, p)
	})
	// Callers that lost the once-race still hit the cache: the build ran
	// on some other goroutine's behalf.
	if !first && br.err == nil {
		return br.path, true, nil
	}
	return br.path, br.hit, br.err
}

// rebuild replaces the key's binary after a handshake mismatch, once per
// process however many runs saw the mismatch.
func (c *Cache) rebuild(p *Program) (string, error) {
	key := cacheKey(p)
	c.mu.Lock()
	br := c.inflight[key]
	if br.rebuild == nil {
		br.rebuild = &buildResult{}
	}
	rb := br.rebuild
	c.mu.Unlock()
	rb.once.Do(func() {
		if err := os.Remove(filepath.Join(c.Dir, key, "runner")); err != nil && !errors.Is(err, os.ErrNotExist) {
			rb.err = fmt.Errorf("gosim: remove stale runner: %w", err)
			return
		}
		rb.path, _, rb.err = c.build(key, p)
	})
	return rb.path, rb.err
}

// build materializes the runner for key, reusing an on-disk binary from a
// previous process when present. Only a miss needs the Go toolchain.
func (c *Cache) build(key string, p *Program) (string, bool, error) {
	dir := filepath.Join(c.Dir, key)
	bin := filepath.Join(dir, "runner")
	if fi, err := os.Stat(bin); err == nil && !fi.IsDir() {
		return bin, true, nil
	}
	if _, err := exec.LookPath("go"); err != nil {
		return "", false, errors.New("gosim: go toolchain not found in PATH")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", false, fmt.Errorf("gosim: create cache dir: %w", err)
	}
	src, err := p.EmitSource()
	if err != nil {
		return "", false, err
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), src, 0o644); err != nil {
		return "", false, fmt.Errorf("gosim: write runner source: %w", err)
	}
	gomod := "module lisarunner\n\ngo 1.22\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		return "", false, fmt.Errorf("gosim: write runner go.mod: %w", err)
	}
	// Unique temp name + rename keeps concurrent processes from clobbering
	// each other's half-written binaries.
	tmp := fmt.Sprintf("%s.tmp.%d", bin, os.Getpid())
	cmd := exec.Command("go", "build", "-o", tmp, ".")
	cmd.Dir = dir
	// Insulate the build from the invoking environment's module knobs.
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off", "GO111MODULE=on")
	if out, err := cmd.CombinedOutput(); err != nil {
		os.Remove(tmp)
		return "", false, fmt.Errorf("gosim: go build runner: %w\n%s", err, out)
	}
	if err := os.Rename(tmp, bin); err != nil {
		os.Remove(tmp)
		return "", false, fmt.Errorf("gosim: install runner: %w", err)
	}
	c.builds.Add(1)
	return bin, false, nil
}

// proc is one resident runner process.
type proc struct {
	key string
	sh  *wireShape
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
	buf []byte // line buffer, reused across runs
	req []byte
}

// checkout hands out an idle runner for p, or starts one — building the
// binary on a cache miss and rebuilding it once if its handshake shows it
// stale. hit reports that no `go build` ran on this call's behalf.
func (c *Cache) checkout(p *Program) (pr *proc, hit bool, err error) {
	key := cacheKey(p)
	c.mu.Lock()
	if n := len(c.idle[key]); n > 0 {
		pr = c.idle[key][n-1]
		c.idle[key] = c.idle[key][:n-1]
		c.mu.Unlock()
		return pr, true, nil
	}
	c.mu.Unlock()
	bin, hit, err := c.Runner(p)
	if err != nil {
		return nil, hit, err
	}
	pr, err = c.start(key, bin, p)
	var stale *staleRunnerError
	if errors.As(err, &stale) {
		if bin, err = c.rebuild(p); err != nil {
			return nil, false, err
		}
		pr, err = c.start(key, bin, p)
		hit = false
	}
	return pr, hit, err
}

// start launches the runner binary and checks its header.
func (c *Cache) start(key, bin string, p *Program) (*proc, error) {
	cmd := exec.Command(bin)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("gosim: runner pipe: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		in.Close()
		return nil, fmt.Errorf("gosim: runner pipe: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("gosim: start runner: %w", err)
	}
	c.starts.Add(1)
	pr := &proc{key: key, sh: p.shape(), cmd: cmd, in: in, out: bufio.NewReader(out)}
	if err := readHeader(pr.out, &pr.buf, pr.sh, p.ModelHash, p.ProgHash); err != nil {
		c.kill(pr)
		return nil, err
	}
	return pr, nil
}

// run serves one request on the runner.
func (pr *proc) run(max uint64, opt Options, res *Result) error {
	pr.req = appendRequest(pr.req[:0], max, opt.OnCycleState != nil)
	if _, err := pr.in.Write(pr.req); err != nil {
		return fmt.Errorf("gosim: runner request: %w", err)
	}
	return readRun(pr.out, &pr.buf, pr.sh, opt, res)
}

// checkin returns a runner that finished a run cleanly to its idle pool,
// or ends it if the cache has been closed.
func (c *Cache) checkin(pr *proc) {
	c.mu.Lock()
	if !c.closed {
		c.idle[pr.key] = append(c.idle[pr.key], pr)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	pr.in.Close()
	c.wait(pr)
}

// kill ends a runner whose state or stream can no longer be trusted.
func (c *Cache) kill(pr *proc) {
	_ = pr.cmd.Process.Kill()
	c.wait(pr)
}

func (c *Cache) wait(pr *proc) error {
	err := pr.cmd.Wait()
	c.reaped.Add(1)
	return err
}

// Close ends every idle runner: it closes their stdin, on which a runner
// exits, and waits for them. Runners checked out at the time end when
// they are checked back in. The cache stays usable for builds and runs,
// but no longer keeps runners resident.
func (c *Cache) Close() error {
	c.mu.Lock()
	c.closed = true
	var all []*proc
	for key, ps := range c.idle {
		all = append(all, ps...)
		delete(c.idle, key)
	}
	c.mu.Unlock()
	for _, pr := range all {
		pr.in.Close()
	}
	var errs []error
	for _, pr := range all {
		if err := c.wait(pr); err != nil {
			errs = append(errs, fmt.Errorf("gosim: runner exit: %w", err))
		}
	}
	return errors.Join(errs...)
}
