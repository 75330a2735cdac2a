package debug

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"golisa/internal/bundle"
	"golisa/internal/otrace"
	"golisa/internal/trace"
)

// traceCtxKey carries the request's otrace context through the handler
// chain.
type traceCtxKey struct{}

// requestContext returns the trace context the observability middleware
// minted for this request (zero when the middleware is not installed,
// which only happens in tests hitting the mux directly).
func requestContext(r *http.Request) otrace.Context {
	ctx, _ := r.Context().Value(traceCtxKey{}).(otrace.Context)
	return ctx
}

// statusRecorder captures the response status for the access log while
// forwarding everything — including Flush, which the NDJSON batch stream
// needs to push records per line.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(p)
}

// Flush implements http.Flusher when the underlying writer does.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withObservability wraps the mux with the server's trace + access-log
// middleware: every request gets a trace context (joined from the
// client's traceparent header when it sent a valid one, fresh
// otherwise), the context is echoed in the response's traceparent header
// and stored on the request for handlers (the batch endpoints parent
// their fleet spans under it), and — when Options.Log is set — one
// structured access-log line records method, path, status, duration and
// the request's span id as the request id.
func (srv *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx := otrace.Context{SpanID: otrace.NewSpanID()}
		if parent, err := otrace.Parse(r.Header.Get("traceparent")); err == nil {
			ctx.TraceID = parent.TraceID
		} else {
			ctx.TraceID = otrace.NewTraceID()
		}
		w.Header().Set("traceparent", ctx.Traceparent())
		sr := &statusRecorder{ResponseWriter: w}
		r = r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, ctx))
		next.ServeHTTP(sr, r)
		if srv.opts.Log != nil {
			status := sr.status
			if status == 0 {
				status = http.StatusOK
			}
			srv.opts.Log.Info("http request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Duration("duration", time.Since(start)),
				slog.String("request_id", ctx.SpanID.String()),
				slog.String("trace_id", ctx.TraceID.String()),
			)
		}
	})
}

// handleHealthz is liveness: the process serves HTTP. It deliberately
// avoids the controller funnel so a wedged simulation cannot make the
// probe hang — that distinction is exactly what /readyz is for.
func (srv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: the simulation has reached its first step
// boundary (the gate is live, so run control and funnelled endpoints
// respond) or has finished. A paused simulation is ready — paused is a
// controlled state, not a wedged one. Non-blocking by construction:
// Controller.Ready only takes the status mutex.
func (srv *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !srv.ctrl.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "simulation not at a step boundary yet")
		return
	}
	fmt.Fprintln(w, "ready")
}

// writeProcessMetrics appends the runtime self-metrics shared by
// /metrics and /batch/metrics: goroutines, heap in use, and cumulative
// GC pause time. These are the "is the simulator host itself healthy"
// counters a scrape needs next to the simulation counters.
func writeProcessMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pw := trace.NewPromWriter(w)
	pw.Head("lisa_process_goroutines", "Goroutines currently live in the simulator process.", "gauge")
	pw.Printf("lisa_process_goroutines %d\n", runtime.NumGoroutine())
	pw.Head("lisa_process_heap_alloc_bytes", "Heap bytes allocated and still in use.", "gauge")
	pw.Printf("lisa_process_heap_alloc_bytes %d\n", ms.HeapAlloc)
	pw.Head("lisa_process_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", "counter")
	pw.Printf("lisa_process_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
}

// handleBundle captures a diagnostic bundle of the live run and streams
// it as a tar.gz download. The capture (snapshotting spans, flight ring,
// profile, reports) runs under the controller funnel; the archive is
// serialized off it.
func (srv *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	if srv.opts.Bundle == nil {
		jsonError(w, http.StatusNotFound, "no bundle source attached")
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", http.MethodGet)
		jsonError(w, http.StatusMethodNotAllowed, "bundle is read-only, use GET")
		return
	}
	var b *bundle.Builder
	var err error
	srv.ctrl.Do(func() { b, err = srv.opts.Bundle() })
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if b == nil {
		jsonError(w, http.StatusInternalServerError, "bundle source returned nothing")
		return
	}
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition", `attachment; filename="lisa-bundle.tar.gz"`)
	_ = b.WriteTar(w)
}
