package gosim

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestExpand(t *testing.T) {
	good := []struct {
		z    []uint64
		n    int
		want []uint64
	}{
		{[]uint64{0}, 0, nil},
		{[]uint64{4}, 4, []uint64{0, 0, 0, 0}},
		{[]uint64{4, 1, 2, 7, 8}, 4, []uint64{0, 7, 8, 0}},
		{[]uint64{4, 0, 1, 5, 3, 1, 9}, 4, []uint64{5, 0, 0, 9}},
	}
	for _, tc := range good {
		got, err := expand(tc.z, tc.n)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("expand(%v, %d) = %v, %v; want %v", tc.z, tc.n, got, err, tc.want)
		}
	}
	bad := []struct {
		z   []uint64
		n   int
		why string
	}{
		{nil, 4, "without a length"},
		{[]uint64{5}, 4, "length 5"},
		{[]uint64{1 << 62}, 4, "length"},
		{[]uint64{0, 0, 1, 1}, 0, "empty array"},
		{[]uint64{4, 1}, 4, "truncated run header"},
		{[]uint64{4, 1, 2, 7}, 4, "truncated run"},
		{[]uint64{4, 3, 2, 1, 1}, 4, "outside"},
		{[]uint64{4, 4, 1, 1}, 4, "outside"},
		{[]uint64{4, 1, 0}, 4, "outside"},
		{[]uint64{4, 1, 1 << 63, 1}, 4, "outside"},
		{[]uint64{4, 2, 1, 1, 1, 1, 1}, 4, "outside"},
	}
	for _, tc := range bad {
		if _, err := expand(tc.z, tc.n); err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("expand(%v, %d) error %v, want one mentioning %q", tc.z, tc.n, err, tc.why)
		}
	}
}

func TestReadLineCap(t *testing.T) {
	long := strings.Repeat("x", 300) + "\n"
	r := bufio.NewReaderSize(strings.NewReader(long), 16)
	var buf []byte
	if _, err := readLine(r, &buf, 200); err == nil || !strings.Contains(err.Error(), "exceeds 200 bytes") {
		t.Fatalf("oversize line: error %v", err)
	}
	if cap(buf) > 201 {
		t.Fatalf("line buffer grew to %d bytes past the 200-byte cap", cap(buf))
	}
}

// fuzzShape is a small state layout: three scalars, an absent memory
// slot and two memories.
var fuzzShape = &wireShape{scalars: 3, arrays: []int{0, 4, 8}, maxLine: 1024}

func checkShape(t *testing.T, sc []uint64, arr [][]uint64) {
	t.Helper()
	if len(sc) != fuzzShape.scalars || len(arr) != len(fuzzShape.arrays) {
		t.Fatalf("state of %d scalars and %d memories accepted against shape %+v", len(sc), len(arr), fuzzShape)
	}
	for i, n := range fuzzShape.arrays {
		if len(arr[i]) != n {
			t.Fatalf("memory %d of %d words accepted, shape says %d", i, len(arr[i]), n)
		}
	}
}

// FuzzRunnerProtocol feeds arbitrary runner output to the engine's
// protocol reader: a header, then runs until the first error. Malformed
// input must come back as an error — never a panic, never state that
// disagrees with the shape, and never a line buffer past the cap.
func FuzzRunnerProtocol(f *testing.F) {
	f.Add([]byte(`{"t":"h","v":2,"model":"m","prog":"p"}` + "\n" +
		`{"t":"p","s":"hi"}` + "\n" +
		`{"t":"r","steps":3,"halted":true,"wall_ns":10,"sc":[3,0,1,9],"arr":[[0],[4],[8,2,2,5,6]],"penalty":{}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReaderSize(bytes.NewReader(data), 64)
		var buf []byte
		defer func() {
			if cap(buf) > fuzzShape.maxLine+1 {
				t.Fatalf("line buffer grew to %d bytes, cap %d", cap(buf), fuzzShape.maxLine)
			}
		}()
		if readHeader(r, &buf, fuzzShape, "m", "p") != nil {
			return
		}
		opt := Options{OnCycleState: func(_ uint64, sc []uint64, arr [][]uint64) { checkShape(t, sc, arr) }}
		for run := 0; run < 16; run++ {
			res := &Result{}
			err := readRun(r, &buf, fuzzShape, opt, res)
			if _, simErr := err.(*runtimeError); err != nil {
				if !simErr && res.Scalars != nil {
					t.Fatalf("protocol error %v left state in the result", err)
				}
				return
			}
			checkShape(t, res.Scalars, res.Arrays)
		}
	})
}
