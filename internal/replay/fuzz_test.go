package replay_test

import (
	"testing"

	"golisa/internal/replay"
)

// FuzzReplayReader feeds arbitrary bytes to the .lrec reader: Parse, then
// DecodeCheckpoint on every indexed checkpoint. Malformed input must come
// back as an error, never as a panic, a hang or an allocation sized by a
// corrupt count. The checked-in corpus holds a valid simple16 recording
// and the wrap-around reproducer of TestParseHugeLength.
func FuzzReplayReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := replay.Parse(data)
		if err != nil {
			return
		}
		for _, ck := range rec.Checkpoints {
			_, _ = rec.DecodeCheckpoint(ck)
		}
	})
}

// TestParseHugeLength pins the reader's length checks against wrap-
// around: a 16-byte header whose model-name length is 2^64-1 used to pass
// the off+n bounds check and slice out of range.
func TestParseHugeLength(t *testing.T) {
	data := append([]byte("LREC1\x02"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if len(data) != 16 {
		t.Fatalf("reproducer is %d bytes, want 16", len(data))
	}
	if _, err := replay.Parse(data); err == nil {
		t.Fatal("a recording with a 2^64-1 byte model name parsed")
	}
}
