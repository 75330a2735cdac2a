// Package trace is the structured observability layer of the golisa
// simulators. The simulator, the pipeline model and the behavior engine
// emit events into an Observer behind a nil-check fast path, so an
// uninstrumented simulation pays only a pointer comparison per hook site.
//
// Concrete observers shipped here:
//
//   - Metrics: per-stage pipeline counters (occupancy, stall cycles,
//     flushes, retire throughput) and per-operation execution/cycle
//     attribution, exportable as Prometheus-exposition-style text or JSON.
//   - ChromeTracer: a Chrome trace-event (chrome://tracing / Perfetto)
//     exporter rendering each pipeline stage as a track and each
//     instruction packet as a flow.
//   - Flight: a ring-buffer flight recorder keeping the last N events for
//     post-mortem dumps on simulator errors.
//
// All event payloads are primitive-typed (names, indices, words) so the
// package sits below every other simulation package in the import graph.
package trace

// PipeInfo describes one pipeline's topology, passed to OnAttach so
// observers can pre-create per-stage tracks and counters. The slice index
// of a PipeInfo is the pipe id used by all later events.
type PipeInfo struct {
	Name   string
	Stages []string
}

// StageTrack is the canonical signal/track name for a pipeline stage,
// shared by the VCD writer, the metrics exporter and the Chrome tracer so
// the same stage is labelled identically across all outputs.
func StageTrack(pipe, stage string) string { return pipe + "." + stage }

// Observer receives simulation events. Implementations must not retain
// slice arguments (they are reused across calls). pipe arguments are
// indices into the OnAttach topology; stage -1 means "whole pipeline";
// pipe -1 on OnExec means the operation is not assigned to any stage.
type Observer interface {
	// OnAttach is called once when the observer is attached to a
	// simulator, before any other event.
	OnAttach(model string, pipes []PipeInfo)
	// OnStepBegin marks the start of a control step.
	OnStepBegin(step uint64)
	// OnStepEnd marks the end of a control step (after commit/shift).
	OnStepEnd(step uint64)
	// OnOccupancy samples stage occupancy of one pipe at step begin.
	OnOccupancy(pipe int, occupied []bool)
	// OnDecode reports a coding-root decode of word (hit = decode cache).
	OnDecode(root string, word uint64, hit bool)
	// OnActivate reports a scheduled activation with its extra delay.
	OnActivate(target string, delay uint64)
	// OnExec reports one operation execution in its pipeline context.
	// packet is the id of the carrying pipeline packet, 0 when none.
	OnExec(op string, pipe, stage int, packet uint64)
	// OnBehavior reports the number of behavior statements an operation's
	// BEHAVIOR section executed (interpretive mode only; inclusive of
	// directly called operations).
	OnBehavior(op string, statements uint64)
	// OnStall reports a stage (or whole-pipe, stage -1) stall request.
	OnStall(pipe, stage int)
	// OnFlush reports a stage (or whole-pipe, stage -1) flush.
	OnFlush(pipe, stage int)
	// OnShift reports a granted pipeline shift.
	OnShift(pipe int)
	// OnRetire reports a packet retiring from the pipe's last stage.
	OnRetire(pipe, stage int, packet uint64, entries int)
	// OnResourceWrite reports a scalar resource write (program order,
	// before latch commit).
	OnResourceWrite(resource string, value uint64)
	// OnMemWrite reports a memory element write.
	OnMemWrite(resource string, addr, value uint64)
}

// Nop implements Observer with no-ops; embed it to implement only a
// subset of the interface.
type Nop struct{}

func (Nop) OnAttach(string, []PipeInfo)       {}
func (Nop) OnStepBegin(uint64)                {}
func (Nop) OnStepEnd(uint64)                  {}
func (Nop) OnOccupancy(int, []bool)           {}
func (Nop) OnDecode(string, uint64, bool)     {}
func (Nop) OnActivate(string, uint64)         {}
func (Nop) OnExec(string, int, int, uint64)   {}
func (Nop) OnBehavior(string, uint64)         {}
func (Nop) OnStall(int, int)                  {}
func (Nop) OnFlush(int, int)                  {}
func (Nop) OnShift(int)                       {}
func (Nop) OnRetire(int, int, uint64, int)    {}
func (Nop) OnResourceWrite(string, uint64)    {}
func (Nop) OnMemWrite(string, uint64, uint64) {}

// Multi fans every event out to each observer in order.
type Multi []Observer

// Fanout combines observers, flattening nested Multis and dropping nils.
// It returns nil when no observer remains and the sole observer when only
// one does, preserving the simulator's nil fast path.
func Fanout(obs ...Observer) Observer {
	var m Multi
	for _, o := range obs {
		switch v := o.(type) {
		case nil:
			continue
		case Multi:
			m = append(m, v...)
		default:
			m = append(m, o)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	}
	return m
}

func (m Multi) OnAttach(model string, pipes []PipeInfo) {
	for _, o := range m {
		o.OnAttach(model, pipes)
	}
}
func (m Multi) OnStepBegin(step uint64) {
	for _, o := range m {
		o.OnStepBegin(step)
	}
}
func (m Multi) OnStepEnd(step uint64) {
	for _, o := range m {
		o.OnStepEnd(step)
	}
}
func (m Multi) OnOccupancy(pipe int, occupied []bool) {
	for _, o := range m {
		o.OnOccupancy(pipe, occupied)
	}
}
func (m Multi) OnDecode(root string, word uint64, hit bool) {
	for _, o := range m {
		o.OnDecode(root, word, hit)
	}
}
func (m Multi) OnActivate(target string, delay uint64) {
	for _, o := range m {
		o.OnActivate(target, delay)
	}
}
func (m Multi) OnExec(op string, pipe, stage int, packet uint64) {
	for _, o := range m {
		o.OnExec(op, pipe, stage, packet)
	}
}
func (m Multi) OnBehavior(op string, statements uint64) {
	for _, o := range m {
		o.OnBehavior(op, statements)
	}
}
func (m Multi) OnStall(pipe, stage int) {
	for _, o := range m {
		o.OnStall(pipe, stage)
	}
}
func (m Multi) OnFlush(pipe, stage int) {
	for _, o := range m {
		o.OnFlush(pipe, stage)
	}
}
func (m Multi) OnShift(pipe int) {
	for _, o := range m {
		o.OnShift(pipe)
	}
}
func (m Multi) OnRetire(pipe, stage int, packet uint64, entries int) {
	for _, o := range m {
		o.OnRetire(pipe, stage, packet, entries)
	}
}
func (m Multi) OnResourceWrite(resource string, value uint64) {
	for _, o := range m {
		o.OnResourceWrite(resource, value)
	}
}
func (m Multi) OnMemWrite(resource string, addr, value uint64) {
	for _, o := range m {
		o.OnMemWrite(resource, addr, value)
	}
}
