package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"golisa/internal/model"
	"golisa/internal/trace"
)

// recorder keeps the traced run's spans in memory. Spans are recorded by
// the benchmark around its own calls into each layer's public functions;
// nothing inside the program is instrumented. A nil recorder records
// nothing, which is how the untraced run uses the same code paths.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// span is one recorded interval. Aggregate spans stand for many short
// callbacks (observer events) summed into one interval placed at the start
// of their parent; they carry the right duration, not the right position.
type span struct {
	ID        int     `json:"id"`
	Parent    int     `json:"parent,omitempty"`
	Name      string  `json:"name"`
	StartUs   float64 `json:"start_us"`
	EndUs     float64 `json:"end_us"`
	Aggregate bool    `json:"aggregate,omitempty"`
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) us(t time.Time) float64 { return float64(t.Sub(r.epoch).Nanoseconds()) / 1e3 }

// start opens a span under parent (0 = root) and returns its id; end
// closes it. Both are no-ops on a nil recorder.
func (r *recorder) start(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := r.us(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, StartUs: now, EndUs: -1})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := r.us(time.Now())
	r.mu.Lock()
	r.spans[id-1].EndUs = now
	r.mu.Unlock()
}

// aggregate records summed callback time d as a child of parent, placed
// right after the parent's earlier aggregate children.
func (r *recorder) aggregate(parent int, name string, d time.Duration) {
	if r == nil || parent == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	at := r.spans[parent-1].StartUs
	for _, s := range r.spans {
		if s.Parent == parent && s.Aggregate && s.EndUs > at {
			at = s.EndUs
		}
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		StartUs: at, EndUs: at + float64(d.Nanoseconds())/1e3, Aggregate: true})
}

// durationsMs returns the duration of every span with the given name.
func (r *recorder) durationsMs(name string) []float64 {
	var ds []float64
	for _, s := range r.spans {
		if s.Name == name {
			ds = append(ds, (s.EndUs-s.StartUs)/1e3)
		}
	}
	return ds
}

// selfUs returns each span's duration minus the part of its interval that
// its children cover.
func (r *recorder) selfUs() []float64 {
	kids := map[int][][2]float64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.StartUs, s.EndUs})
		}
	}
	self := make([]float64, len(r.spans))
	for i, s := range r.spans {
		iv := kids[s.ID]
		slices.SortFunc(iv, func(a, b [2]float64) int {
			switch {
			case a[0] < b[0]:
				return -1
			case a[0] > b[0]:
				return 1
			}
			return 0
		})
		covered, reach := 0.0, s.StartUs
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.EndUs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.EndUs - s.StartUs - covered
	}
	return self
}

// layerOf maps a span name ("sim.Run", "gosim.build") to its layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// printLayers writes the self time of every layer, and of every span name,
// as a share of all recorded self time.
func (r *recorder) printLayers(w io.Writer) {
	self := r.selfUs()
	byLayer, byName, count := map[string]float64{}, map[string]float64{}, map[string]int{}
	var total float64
	for i, s := range r.spans {
		byLayer[layerOf(s.Name)] += self[i]
		byName[s.Name] += self[i]
		count[s.Name]++
		total += self[i]
	}
	fmt.Fprintf(w, "layer self time (share of all recorded self time, %.1f ms; spans on parallel goroutines overlap):\n", total/1e3)
	for _, l := range sortedKeys(byLayer) {
		fmt.Fprintf(w, "  %-10s %10.2f ms  %5.1f%%\n", l, byLayer[l]/1e3, 100*ratio(byLayer[l], total))
		for _, n := range sortedKeys(byName) {
			if layerOf(n) == l {
				fmt.Fprintf(w, "    %-24s %6d spans %10.2f ms\n", n, count[n], byName[n]/1e3)
			}
		}
	}
}

// write saves the spans as JSON.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{r.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedObserver forwards every callback to a real observer, counts them,
// and times every sampleStride-th one, so the observer's self time can be
// told apart from the simulator's. Timing every callback would cost more
// than most callbacks themselves and land in the simulator's self time;
// the sampled time scaled by the stride estimates the total. It
// implements the hazard and edge extensions and forwards through the
// trace package's emit helpers, so the inner observer sees exactly the
// calls it would see attached directly.
type timedObserver struct {
	inner   trace.Observer
	events  uint64
	sampled time.Duration
}

const sampleStride = 8

func (t *timedObserver) timed(f func()) {
	t.events++
	if t.events%sampleStride != 0 {
		f()
		return
	}
	t0 := time.Now()
	f()
	t.sampled += time.Since(t0)
}

// spent estimates the total time spent inside the observer: the sampled
// time less the clock's own cost per sample, scaled by the stride.
func (t *timedObserver) spent() time.Duration {
	n := time.Duration(t.events / sampleStride)
	return max(0, t.sampled-n*clockCost()) * sampleStride
}

// clockCost measures, once, what timing an empty callback costs.
var clockCost = sync.OnceValue(func() time.Duration {
	const n = 1 << 16
	t := &timedObserver{}
	noop := func() {}
	for i := 0; i < n*sampleStride; i++ {
		t.timed(noop)
	}
	return t.sampled / n
})

// markDecoded times a decode hook (cover's MarkDecoded) as part of the
// same observer.
func (t *timedObserver) markDecoded(f func(*model.Instance)) func(*model.Instance) {
	return func(in *model.Instance) { t.timed(func() { f(in) }) }
}

func (t *timedObserver) OnAttach(m string, p []trace.PipeInfo) {
	t.timed(func() { t.inner.OnAttach(m, p) })
}
func (t *timedObserver) OnStepBegin(s uint64) { t.timed(func() { t.inner.OnStepBegin(s) }) }
func (t *timedObserver) OnStepEnd(s uint64)   { t.timed(func() { t.inner.OnStepEnd(s) }) }
func (t *timedObserver) OnOccupancy(p int, o []bool) {
	t.timed(func() { t.inner.OnOccupancy(p, o) })
}
func (t *timedObserver) OnDecode(r string, w uint64, h bool) {
	t.timed(func() { t.inner.OnDecode(r, w, h) })
}
func (t *timedObserver) OnActivate(tg string, d uint64) {
	t.timed(func() { t.inner.OnActivate(tg, d) })
}
func (t *timedObserver) OnActivateEdge(src, tg string, d uint64) {
	t.timed(func() { trace.EmitActivate(t.inner, src, tg, d) })
}
func (t *timedObserver) OnExec(op string, p, s int, pk uint64) {
	t.timed(func() { t.inner.OnExec(op, p, s, pk) })
}
func (t *timedObserver) OnBehavior(op string, n uint64) {
	t.timed(func() { t.inner.OnBehavior(op, n) })
}
func (t *timedObserver) OnStall(p, s int) { t.timed(func() { t.inner.OnStall(p, s) }) }
func (t *timedObserver) OnFlush(p, s int) { t.timed(func() { t.inner.OnFlush(p, s) }) }
func (t *timedObserver) OnStallInfo(i trace.StallInfo) {
	t.timed(func() { trace.EmitStall(t.inner, i) })
}
func (t *timedObserver) OnFlushInfo(i trace.StallInfo) {
	t.timed(func() { trace.EmitFlush(t.inner, i) })
}
func (t *timedObserver) OnShift(p int) { t.timed(func() { t.inner.OnShift(p) }) }
func (t *timedObserver) OnRetire(p, s int, pk uint64, n int) {
	t.timed(func() { t.inner.OnRetire(p, s, pk, n) })
}
func (t *timedObserver) OnResourceWrite(r string, v uint64) {
	t.timed(func() { t.inner.OnResourceWrite(r, v) })
}
func (t *timedObserver) OnMemWrite(r string, a, v uint64) {
	t.timed(func() { t.inner.OnMemWrite(r, a, v) })
}
