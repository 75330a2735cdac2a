package gosim

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"golisa/internal/asm"
	"golisa/internal/bitvec/kernel"
	"golisa/internal/core"
	"golisa/internal/model"
)

// progBadWord steers simple16 into an undecodable word (opcode 0b100001
// is unassigned), so every run ends in a runtime error.
const progBadWord = "NOP\n.word 0x84000000\nNOP\nNOP\nNOP\n"

// progSpin never halts: every run is stopped by its step limit.
const progSpin = `
spin:   B   spin
        NOP
        NOP
`

// runOut is everything one run reports: the result, the error text and
// the per-cycle state sequence.
type runOut struct {
	res   *Result
	err   string
	snaps []snap
}

// sameRun compares two runs field by field. A failed run carries no
// final state, so only its step count and prints are compared.
func sameRun(t *testing.T, what string, got, want runOut) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: error %q, want %q", what, got.err, want.err)
	}
	g, w := got.res, want.res
	if g.Steps != w.Steps || !reflect.DeepEqual(g.Prints, w.Prints) {
		t.Fatalf("%s: steps %d prints %q, want steps %d prints %q", what, g.Steps, g.Prints, w.Steps, w.Prints)
	}
	if got.err == "" && (g.Halted != w.Halted || !reflect.DeepEqual(g.Scalars, w.Scalars) || !reflect.DeepEqual(g.Arrays, w.Arrays)) {
		t.Fatalf("%s: final state differs (halted %v, want %v)", what, g.Halted, w.Halted)
	}
	if !reflect.DeepEqual(got.snaps, want.snaps) {
		t.Fatalf("%s: cycle-state sequence differs (%d states, want %d)", what, len(got.snaps), len(want.snaps))
	}
}

// onProc serves one run on a runner process without the engine's
// check-in and kill policy, so a runner keeps serving after an "e" line.
func onProc(pr *proc, max uint64, trace bool) runOut {
	o := runOut{res: &Result{}}
	var opt Options
	if trace {
		opt.OnCycleState = collector(&o.snaps)
	}
	if err := pr.run(max, opt, o.res); err != nil {
		o.err = err.Error()
	}
	return o
}

// sameAsInterpretive compares a runner's run with an interpretive sim
// run of the same program under the same step limit: steps, halt, prints
// and the state after every completed control step. A run that fails
// must fail on both sides, after the same number of steps.
func sameAsInterpretive(t *testing.T, what string, mc *core.Machine, prog *asm.Program, p *Program, max uint64, got runOut) {
	t.Helper()
	ref := refSim(t, mc, prog)
	var prints []string
	ref.OnPrint = func(s string) { prints = append(prints, s) }
	var states []*model.State
	var n uint64
	var err error
	for n < max && !ref.Halted() {
		if err = ref.RunStep(); err != nil {
			break
		}
		n++
		states = append(states, ref.S.Clone())
	}
	if (got.err != "") != (err != nil) {
		t.Fatalf("%s: error %q, interpretive error %v", what, got.err, err)
	}
	g := got.res
	if g.Steps != n || !slices.Equal(g.Prints, prints) {
		t.Fatalf("%s: steps %d prints %q, interpretive steps %d prints %q", what, g.Steps, g.Prints, n, prints)
	}
	if got.err == "" {
		if g.Halted != ref.Halted() {
			t.Fatalf("%s: halted %v, interpretive %v", what, g.Halted, ref.Halted())
		}
		if eq, diff := p.StateFrom(g.Scalars, g.Arrays).Equal(ref.S); !eq {
			t.Fatalf("%s: final state differs from the interpretive run: %s", what, diff)
		}
	}
	if got.snaps == nil {
		return
	}
	// The runner reports the state after a failing step too; the
	// interpretive simulator stops inside it.
	want := len(states)
	if got.err != "" {
		want++
	}
	if len(got.snaps) != want {
		t.Fatalf("%s: %d cycle states, want %d", what, len(got.snaps), want)
	}
	for i, want := range states {
		if eq, diff := p.StateFrom(got.snaps[i].sc, got.snaps[i].arr).Equal(want); !eq {
			t.Fatalf("%s: state after step %d differs from the interpretive run: %s", what, i+1, diff)
		}
	}
}

// TestResidentRunnerExact serves an interleaved schedule of runs — full
// and step-limited, traced and untraced — on one resident runner per
// program, and demands that every run equals the same run on a freshly
// started runner and on the interpretive simulator: nothing a run leaves
// behind may leak into the next.
func TestResidentRunnerExact(t *testing.T) {
	needGo(t)
	cache := NewCache(t.TempDir())
	defer cache.Close()
	cases := []struct{ name, model, lisa, prog string }{
		{"loop", "simple16", "", progLoop},
		{"ops", "simple16", "", progOps},
		{"opsmodel", "opstest", opsModel, opsProg},
		{"runtime-error", "simple16", "", progBadWord},
		{"step-limited", "simple16", "", progSpin},
	}
	schedule := []struct {
		max   uint64
		trace bool
	}{{500, false}, {7, true}, {500, true}, {3, false}, {500, false}, {40, true}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mc, prog, p := loadPair(t, tc.model, tc.lisa, tc.prog)
			resident, _, err := cache.checkout(p)
			if err != nil {
				t.Fatal(err)
			}
			defer cache.kill(resident)
			bin, _, err := cache.Runner(p)
			if err != nil {
				t.Fatal(err)
			}
			for i, rq := range schedule {
				fresh, err := cache.start(cacheKey(p), bin, p)
				if err != nil {
					t.Fatal(err)
				}
				want := onProc(fresh, rq.max, rq.trace)
				cache.kill(fresh)
				got := onProc(resident, rq.max, rq.trace)
				what := fmt.Sprintf("run %d (max %d, trace %v)", i, rq.max, rq.trace)
				sameRun(t, what+" resident vs fresh runner", got, want)
				sameAsInterpretive(t, what+" resident runner vs interpretive", mc, prog, p, rq.max, got)
			}
		})
	}
}

// TestEngineKeepsRunnerResident pins the pool policy: runs of one program
// reuse one process, traced or not, while a runner that reported a
// runtime error is killed rather than reused; Close waits for them all.
func TestEngineKeepsRunnerResident(t *testing.T) {
	needGo(t)
	cache := NewCache(t.TempDir())
	_, _, p := loadPair(t, "simple16", "", progOps)
	for i := 0; i < 4; i++ {
		var snaps []snap
		var opt Options
		if i%2 == 1 {
			opt.OnCycleState = collector(&snaps)
		}
		res, err := NewEngine(p, cache, opt).runNative(10_000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Halted || (i > 0 && !res.CacheHit) {
			t.Fatalf("run %d: halted=%v hit=%v", i, res.Halted, res.CacheHit)
		}
	}
	if cache.Builds() != 1 || cache.Starts() != 1 {
		t.Fatalf("builds %d, starts %d after 4 runs; want 1 and 1", cache.Builds(), cache.Starts())
	}

	_, _, bad := loadPair(t, "simple16", "", progBadWord)
	for i := 0; i < 2; i++ {
		res, err := NewEngine(bad, cache, Options{}).runNative(100)
		if err == nil || res == nil {
			t.Fatalf("bad-word run %d: res %+v, err %v; want a runtime error with its partial result", i, res, err)
		}
	}
	if got := cache.Starts(); got != 3 {
		t.Fatalf("starts %d, want 3: a runner that reported an error must not be reused", got)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	if s, r := cache.Starts(), cache.reaped.Load(); s != r {
		t.Fatalf("%d runners started, %d waited for after Close", s, r)
	}
}

// TestCacheCloseReapsRunners runs one program from several goroutines at
// once: the pool grows to the concurrency, not the run count, and Close
// leaves no runner unwaited. A run after Close still works, without
// staying resident.
func TestCacheCloseReapsRunners(t *testing.T) {
	needGo(t)
	cache := NewCache(t.TempDir())
	_, _, p := loadPair(t, "simple16", "", progLoop)
	const workers, runs = 3, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*runs)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				res, err := NewEngine(p, cache, Options{}).runNative(10_000)
				if err == nil && !res.Halted {
					err = fmt.Errorf("run did not halt")
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := cache.Starts(); s < 1 || s > workers {
		t.Fatalf("starts %d for %d concurrent workers", s, workers)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(p, cache, Options{}).runNative(10_000); err != nil {
		t.Fatal(err)
	}
	if s, r := cache.Starts(), cache.reaped.Load(); s != r {
		t.Fatalf("%d runners started, %d waited for", s, r)
	}
}

// TestStaleRunnerNotReused plants stub runners that answer every run with
// a bogus one-step result. Neither a binary at the unversioned key path
// nor one whose header names another runner version may be used: the
// engine must report the real run, as the interpretive simulator runs it.
func TestStaleRunnerNotReused(t *testing.T) {
	needGo(t)
	if runtime.GOOS == "windows" {
		t.Skip("the stub runner is a shell script")
	}
	mc, prog, p := loadPair(t, "simple16", "", progOps)
	ref := refSim(t, mc, prog)
	wantSteps, err := ref.Run(10_000)
	if err != nil || !ref.Halted() {
		t.Fatalf("interpretive run: halted %v, err %v", ref.Halted(), err)
	}
	cases := []struct{ name, key, header string }{
		{"unversioned-key", p.ModelHash + "-" + p.ProgHash,
			fmt.Sprintf(`{"t":"h","model":%q,"prog":%q}`, p.ModelHash, p.ProgHash)},
		{"version-mismatch", cacheKey(p),
			fmt.Sprintf(`{"t":"h","v":%d,"model":%q,"prog":%q}`, runnerVersion-1, p.ModelHash, p.ProgHash)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			stub := "#!/bin/sh\necho '" + tc.header + "'\necho '{\"t\":\"r\",\"steps\":1,\"halted\":true}'\ncat >/dev/null\n"
			if err := os.MkdirAll(filepath.Join(dir, tc.key), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, tc.key, "runner"), []byte(stub), 0o755); err != nil {
				t.Fatal(err)
			}
			cache := NewCache(dir)
			defer cache.Close()
			res, err := NewEngine(p, cache, Options{}).Run(10_000)
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps != wantSteps || !res.Halted {
				t.Fatalf("steps=%d halted=%v; want %d steps, halted", res.Steps, res.Halted, wantSteps)
			}
			if res.CacheHit || cache.Builds() != 1 {
				t.Fatalf("hit=%v builds=%d; want the stale runner replaced by one build", res.CacheHit, cache.Builds())
			}
		})
	}
}

// TestPrebuiltRunnerWithoutToolchain: a runner already in the cache needs
// no Go toolchain; only a build does.
func TestPrebuiltRunnerWithoutToolchain(t *testing.T) {
	needGo(t)
	_, _, p := loadPair(t, "simple16", "", progOps)
	dir := t.TempDir()
	if _, _, err := NewCache(dir).Runner(p); err != nil {
		t.Fatal(err)
	}
	t.Setenv("PATH", "")
	cache := NewCache(dir)
	defer cache.Close()
	res, err := NewEngine(p, cache, Options{}).Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("the run from the prebuilt runner did not halt")
	}
}

// runnerSourcePins maps each runnerVersion to the SHA-256 of the runner
// source emitted for progOps on simple16.
var runnerSourcePins = map[int]string{
	2: "0a63ae8e557007c368005398a2dc20d9d77df2e29945464d191c0056a9fa06a1",
	3: "1a95fe2ede894cc36700b093ca1ffdff2a68498134f9809e6bf3778fa6f6b090",
}

// TestRunnerSourcePinned fails on any change to the emitted runner until
// runnerVersion is bumped and the new hash pinned beside it, so a cached
// binary from another emitter is never taken for a current one.
func TestRunnerSourcePinned(t *testing.T) {
	_, _, p := loadPair(t, "simple16", "", progOps)
	src, err := p.EmitSource()
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%x", sha256.Sum256(src))
	if want := runnerSourcePins[runnerVersion]; got != want {
		t.Fatalf("emitted runner for progOps hashes to %s, pinned for runner version %d: %q; "+
			"the emitter changed: bump runnerVersion and pin the new hash", got, runnerVersion, want)
	}
}

// TestRunnerEmbedsKernel pins that a runner executes the shared semantic
// kernel itself: the emitted source holds kernel.go after its package
// clause byte for byte. Since the kernel is part of the pinned source, a
// kernel edit also fails TestRunnerSourcePinned until runnerVersion moves.
func TestRunnerEmbedsKernel(t *testing.T) {
	_, _, p := loadPair(t, "opstest", opsModel, opsProg)
	src, err := p.EmitSource()
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(kernel.Source, "\npackage kernel\n")
	if !ok || !strings.Contains(body, "func ShrS(") {
		t.Fatalf("kernel source has no package clause or no ShrS:\n%s", kernel.Source)
	}
	if !strings.Contains(string(src), body) {
		t.Fatal("emitted runner does not contain the kernel source verbatim")
	}
}

// BenchmarkNativeRunResident times Engine.Run on a warm resident runner
// and reports the part of it outside the runner's own step loop: request,
// reset, result encoding and decoding.
func BenchmarkNativeRunResident(b *testing.B) {
	if _, err := exec.LookPath("go"); err != nil {
		b.Skip("go toolchain not on PATH")
	}
	_, _, p := loadPair(b, "simple16", "", progOps)
	cache := NewCache(b.TempDir())
	defer cache.Close()
	eng := NewEngine(p, cache, Options{})
	if _, err := eng.runNative(10_000); err != nil {
		b.Fatal(err)
	}
	var loop int64
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := eng.runNative(10_000)
		if err != nil {
			b.Fatal(err)
		}
		loop += res.RunNs
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds()-loop)/float64(b.N), "overhead-ns/run")
}
