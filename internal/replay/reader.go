package replay

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"golisa/internal/sim"
	"golisa/internal/trace"
)

// CkptRef is one checkpoint found while scanning a recording: its step,
// its recorded state hash, and the file offset of the checkpoint record.
type CkptRef struct {
	Step uint64
	Hash uint64
	off  int
}

// Recording is a parsed .lrec file. Open/Parse validate the header and
// scan the record stream once, indexing every checkpoint; truncated files
// (a recording cut off by a crash) parse successfully with Truncated set
// and everything before the cut available.
type Recording struct {
	Version   uint64 // wire version the recording was written with
	ModelName string
	Source    string // embedded LISA model source
	Mode      sim.Mode
	Every     uint64 // checkpoint cadence the recorder used
	Ops       []string
	Resources []string

	Checkpoints []CkptRef
	FinalStep   uint64 // first step NOT in the recording
	Halted      bool   // simulator had halted when the recording ended
	Complete    bool   // end record present
	Truncated   bool   // scan hit a cut-off record
	Events      uint64 // event records
	InputCount  uint64 // external-input records
	Size        int    // total bytes

	data []byte
	body int // offset of the first record
}

// Open reads and parses a .lrec file.
func Open(path string) (*Recording, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("open recording: %w", err)
	}
	rec, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("recording %s: %w", path, err)
	}
	return rec, nil
}

// Parse parses an in-memory .lrec image.
func Parse(data []byte) (*Recording, error) {
	if len(data) < len(lrecMagic) || !bytes.Equal(data[:len(lrecMagic)], lrecMagic) {
		return nil, fmt.Errorf("not a .lrec recording (bad magic)")
	}
	d := &dec{b: data, off: len(lrecMagic)}
	v := d.u()
	if v < minWireVersion || v > wireVersion {
		if d.err != nil {
			return nil, fmt.Errorf("truncated header")
		}
		return nil, fmt.Errorf("unsupported .lrec version %d (want %d..%d)", v, minWireVersion, wireVersion)
	}
	rec := &Recording{
		Version:   v,
		ModelName: d.str(),
		Source:    d.str(),
		Mode:      sim.Mode(d.byte()),
		Every:     d.u(),
		data:      data,
		Size:      len(data),
	}
	nOps := d.u()
	if d.err != nil || nOps > uint64(len(data)) {
		return nil, fmt.Errorf("truncated header")
	}
	if err := checkMode(rec.Mode); err != nil {
		return nil, err
	}
	for i := uint64(0); i < nOps && d.err == nil; i++ {
		rec.Ops = append(rec.Ops, d.str())
	}
	nRes := d.u()
	if d.err != nil || nRes > uint64(len(data)) {
		return nil, fmt.Errorf("truncated header")
	}
	for i := uint64(0); i < nRes && d.err == nil; i++ {
		rec.Resources = append(rec.Resources, d.str())
	}
	if d.err != nil {
		return nil, fmt.Errorf("truncated header")
	}
	rec.body = d.off
	rec.scan()
	return rec, nil
}

// retiredCacheOnlyMode is the header mode byte of the decode-cache-only
// engine that was folded into sim.Compiled.
const retiredCacheOnlyMode = sim.Mode(1)

// checkMode rejects a header mode byte that names no current engine.
func checkMode(m sim.Mode) error {
	if m == retiredCacheOnlyMode {
		return fmt.Errorf("recorded with the retired decode-cache-only \"compiled\" engine (mode byte 1); re-record with -mode compiled")
	}
	if _, err := sim.ParseMode(m.String()); err != nil {
		return fmt.Errorf("header names unknown simulation mode %d", int(m))
	}
	return nil
}

// scan walks the record stream once, indexing checkpoints and counting.
func (r *Recording) scan() {
	c := r.Cursor()
	for {
		off := c.Offset()
		rc, err := c.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			// Cut-off record: everything before it stands.
			r.Truncated = true
			return
		}
		switch rc.Kind {
		case recCheckpoint:
			r.Checkpoints = append(r.Checkpoints, CkptRef{Step: rc.Step, Hash: rc.CkptHash, off: off})
			if rc.Step > r.FinalStep {
				// A checkpoint proves state at its boundary even when the
				// step's end record is missing (partial flush).
				r.FinalStep = rc.Step
			}
		case recInput:
			r.InputCount++
		case recEnd:
			r.Complete = true
			r.FinalStep = rc.Step
			r.Halted = rc.Halted
			return
		case recNote:
		default:
			r.Events++
			if rc.Kind == recStepEnd {
				r.FinalStep = rc.Step + 1
			}
		}
	}
}

// NearestCheckpoint returns the latest checkpoint at or before cycle.
func (r *Recording) NearestCheckpoint(cycle uint64) (CkptRef, bool) {
	best := -1
	for i, ck := range r.Checkpoints {
		if ck.Step <= cycle {
			best = i
		} else {
			break
		}
	}
	if best < 0 {
		return CkptRef{}, false
	}
	return r.Checkpoints[best], true
}

// CheckpointOffset returns the byte offset of checkpoint i's record
// (tooling and corruption tests).
func (r *Recording) CheckpointOffset(i int) int { return r.Checkpoints[i].off }

// DecodeCheckpoint decodes the full snapshot stored at a checkpoint.
func (r *Recording) DecodeCheckpoint(ref CkptRef) (*sim.Snapshot, error) {
	d := &dec{b: r.data, off: ref.off}
	if k := d.byte(); k != recCheckpoint {
		return nil, fmt.Errorf("offset %d is not a checkpoint record", ref.off)
	}
	b := d.take(d.u())
	if d.err != nil {
		return nil, fmt.Errorf("checkpoint at step %d: %w", ref.Step, errTruncated)
	}
	body := &dec{b: b}
	step := body.u()
	hash := body.fixed64()
	snap := decodeSnapshot(body, r.ModelName, r.Ops)
	if body.err != nil {
		return nil, fmt.Errorf("checkpoint at step %d: %w", ref.Step, body.err)
	}
	if step != ref.Step || hash != ref.Hash {
		return nil, fmt.Errorf("checkpoint at step %d: index mismatch", ref.Step)
	}
	if got := snap.Hash(); got != hash {
		return nil, fmt.Errorf("checkpoint at step %d: snapshot hash %#x does not match recorded %#x (corrupt recording)", ref.Step, got, hash)
	}
	return snap, nil
}

// Record is one decoded record. Event kinds carry a fully resolved
// trace.Event (names looked up through the header tables); the other
// kinds use the dedicated fields.
type Record struct {
	Kind    int
	IsEvent bool
	Event   trace.Event

	Step uint64 // step-begin/end, input, checkpoint, end

	Input    Input
	CkptHash uint64
	Halted   bool

	OccPipe   int
	OccStages int
	OccMask   []uint64
}

// Render formats a record for dumps and diff output.
func (rc Record) Render() string {
	switch rc.Kind {
	case recOccupancy:
		return fmt.Sprintf("#%d occupancy pipe=%d stages=%d mask=%#x", rc.Event.Step, rc.OccPipe, rc.OccStages, rc.OccMask)
	case recInput:
		in := rc.Input
		if in.IsMem {
			return fmt.Sprintf("#%d input %s[%#x] = %#x", in.Step, in.Resource, in.Addr, in.Value)
		}
		return fmt.Sprintf("#%d input %s = %#x", in.Step, in.Resource, in.Value)
	case recCheckpoint:
		return fmt.Sprintf("#%d checkpoint hash=%#x", rc.Step, rc.CkptHash)
	case recEnd:
		return fmt.Sprintf("#%d end halted=%v", rc.Step, rc.Halted)
	default:
		return rc.Event.String()
	}
}

// Cursor iterates over a recording's records in stream order.
type Cursor struct {
	rec *Recording
	d   dec
	cur uint64 // current step, from step-begin records
}

// Cursor returns an iterator positioned at the first record.
func (r *Recording) Cursor() *Cursor {
	return &Cursor{rec: r, d: dec{b: r.data, off: r.body}}
}

// CursorAt returns an iterator positioned at a checkpoint record.
func (r *Recording) CursorAt(ref CkptRef) *Cursor {
	return &Cursor{rec: r, d: dec{b: r.data, off: ref.off}, cur: ref.Step}
}

// Offset returns the byte offset of the next record.
func (c *Cursor) Offset() int { return c.d.off }

func (c *Cursor) opName(d *dec) string {
	i := d.u()
	if i == 0 {
		return d.str()
	}
	if i-1 >= uint64(len(c.rec.Ops)) {
		d.fail()
		return ""
	}
	return c.rec.Ops[i-1]
}

func (c *Cursor) resName(d *dec) string {
	i := d.u()
	if i == 0 {
		return d.str()
	}
	if i-1 >= uint64(len(c.rec.Resources)) {
		d.fail()
		return ""
	}
	return c.rec.Resources[i-1]
}

// Next decodes the next record. It returns io.EOF at the end of the
// stream and errTruncated when a record is cut off mid-way.
func (c *Cursor) Next() (Record, error) {
	if c.d.off >= len(c.d.b) {
		return Record{}, io.EOF
	}
	d := &c.d
	kind := int(d.byte())
	rc := Record{Kind: kind}
	ev := &rc.Event
	ev.Step = c.cur
	ev.Pipe = -1
	switch kind {
	case recStepBegin:
		rc.Step = d.u()
		c.cur = rc.Step
		rc.IsEvent = true
		ev.Kind, ev.Step = trace.KindStepBegin, rc.Step
	case recStepEnd:
		rc.Step = d.u()
		rc.IsEvent = true
		ev.Kind, ev.Step = trace.KindStepEnd, rc.Step
	case recOccupancy:
		rc.OccPipe = int(d.u())
		rc.OccStages = int(d.u())
		words := (rc.OccStages + 63) / 64
		for i := 0; i < words && d.err == nil; i++ {
			rc.OccMask = append(rc.OccMask, d.u())
		}
	case recDecode:
		rc.IsEvent = true
		ev.Kind = trace.KindDecode
		ev.Name = c.opName(d)
		ev.Value = d.u()
		ev.Flag = d.bool()
	case recActivate:
		rc.IsEvent = true
		ev.Kind = trace.KindActivate
		ev.Name = c.opName(d)
		ev.Value = d.u()
	case recExec:
		rc.IsEvent = true
		ev.Kind = trace.KindExec
		ev.Name = c.opName(d)
		ev.Pipe = int32(d.i())
		ev.Stage = int32(d.i())
		ev.Aux = d.u()
	case recBehavior:
		rc.IsEvent = true
		ev.Kind = trace.KindBehavior
		ev.Name = c.opName(d)
		ev.Value = d.u()
	case recStall, recFlush:
		rc.IsEvent = true
		ev.Kind = trace.KindStall
		if kind == recFlush {
			ev.Kind = trace.KindFlush
		}
		ev.Pipe = int32(d.u())
		ev.Stage = int32(d.i())
		if c.rec.Version >= 2 {
			ev.Cause = trace.Cause(d.byte())
			ev.Name = c.opName(d)
			ev.Res = c.resName(d)
			ev.Aux = d.u()
		}
	case recShift:
		rc.IsEvent = true
		ev.Kind = trace.KindShift
		ev.Pipe = int32(d.u())
		ev.Stage = -1
	case recRetire:
		rc.IsEvent = true
		ev.Kind = trace.KindRetire
		ev.Pipe = int32(d.u())
		ev.Stage = int32(d.u())
		ev.Aux = d.u()
		ev.Value = d.u()
	case recWrite:
		rc.IsEvent = true
		ev.Kind = trace.KindWrite
		ev.Name = c.resName(d)
		ev.Value = d.u()
	case recMemWrite:
		rc.IsEvent = true
		ev.Kind = trace.KindMemWrite
		ev.Name = c.resName(d)
		ev.Aux = d.u()
		ev.Value = d.u()
	case recNote:
		rc.IsEvent = true
		ev.Kind = trace.KindDiverge
		ev.Name = d.str()
		ev.Value = d.u()
	case recInput:
		rc.Input.Step = d.u()
		rc.Input.IsMem = d.bool()
		rc.Input.Resource = c.resName(d)
		rc.Input.Addr = d.u()
		rc.Input.Value = d.u()
		rc.Step = rc.Input.Step
	case recCheckpoint:
		b := d.take(d.u())
		if d.err != nil {
			break
		}
		body := &dec{b: b}
		rc.Step = body.u()
		rc.CkptHash = body.fixed64()
		if body.err != nil {
			d.fail()
		}
	case recEnd:
		rc.Step = d.u()
		rc.Halted = d.bool()
	default:
		d.fail()
	}
	if d.err != nil {
		return Record{}, d.err
	}
	return rc, nil
}

// EventsInRange collects the decoded events (and inputs, rendered as
// events at their step) whose step lies in [lo, hi], walking the whole
// recording. Used for divergence-window extraction.
func (r *Recording) EventsInRange(lo, hi uint64) []trace.Event {
	var out []trace.Event
	c := r.Cursor()
	for {
		rc, err := c.Next()
		if err != nil {
			return out
		}
		switch {
		case rc.Kind == recEnd:
			return out
		case rc.IsEvent && rc.Event.Step >= lo && rc.Event.Step <= hi:
			out = append(out, rc.Event)
		case rc.Kind == recInput && rc.Input.Step >= lo && rc.Input.Step <= hi:
			in := rc.Input
			ev := trace.Event{Step: in.Step, Kind: trace.KindWrite, Pipe: -1, Name: in.Resource, Value: in.Value}
			if in.IsMem {
				ev.Kind = trace.KindMemWrite
				ev.Aux = in.Addr
			}
			out = append(out, ev)
		}
	}
}
