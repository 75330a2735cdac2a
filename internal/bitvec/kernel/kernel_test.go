package kernel

import (
	"math/big"
	"testing"
)

// The reference model below is written over math/big two's-complement
// arithmetic, independently of the kernel's uint64 tricks: a payload of
// width w reads as the integer v (unsigned) or v-2^w when bit w-1 is set
// (signed), every operation is exact, and results wrap modulo 2^w.

func pow2(n int) *big.Int { return new(big.Int).Lsh(big.NewInt(1), uint(n)) }

func bu(v uint64) *big.Int { return new(big.Int).SetUint64(v) }

// signed reads the low w bits of v as a two's-complement integer.
func signed(v uint64, w int) *big.Int {
	x := new(big.Int).Mod(bu(v), pow2(w))
	if x.Cmp(pow2(w-1)) >= 0 {
		x.Sub(x, pow2(w))
	}
	return x
}

// wrap reduces x modulo 2^w into a payload.
func wrap(x *big.Int, w int) uint64 {
	return new(big.Int).Mod(x, pow2(w)).Uint64()
}

func refMask(w int) uint64 { return wrap(new(big.Int).Sub(pow2(w), big.NewInt(1)), 64) }

func refShl(a, n uint64, w int) uint64 {
	if n >= uint64(w) {
		return 0
	}
	return wrap(new(big.Int).Mul(bu(a), pow2(int(n))), w)
}

func refShrU(a, n uint64, w int) uint64 {
	if n >= uint64(w) {
		return 0
	}
	return new(big.Int).Div(bu(a), pow2(int(n))).Uint64()
}

func refShrS(a, n uint64, w int) uint64 {
	if n >= uint64(w) {
		n = uint64(w - 1)
	}
	// Euclidean division by a positive divisor is floor division, the
	// arithmetic shift.
	return wrap(new(big.Int).Div(signed(a, w), pow2(int(n))), w)
}

func refDiv(a, b uint64, w int, sgn bool) uint64 {
	if b == 0 {
		return refMask(w)
	}
	if sgn {
		return wrap(new(big.Int).Quo(signed(a, w), signed(b, w)), w)
	}
	return wrap(new(big.Int).Quo(bu(a), bu(b)), w)
}

func refRem(a, b uint64, w int, sgn bool) uint64 {
	if b == 0 {
		return 0
	}
	if sgn {
		return wrap(new(big.Int).Rem(signed(a, w), signed(b, w)), w)
	}
	return wrap(new(big.Int).Rem(bu(a), bu(b)), w)
}

func refAbs(v uint64, w int) uint64 { return wrap(new(big.Int).Abs(signed(v, w)), w) }

func refMin(a, b uint64, w int, sgn, max bool) uint64 {
	x, y := bu(a), bu(b)
	if sgn {
		x, y = signed(a, w), signed(b, w)
	}
	if (x.Cmp(y) <= 0) != max {
		return a
	}
	return b
}

// clamp limits x to the signed range of to bits.
func clamp(x *big.Int, to int) *big.Int {
	hi := new(big.Int).Sub(pow2(to-1), big.NewInt(1))
	lo := new(big.Int).Neg(pow2(to - 1))
	switch {
	case x.Cmp(hi) > 0:
		return hi
	case x.Cmp(lo) < 0:
		return lo
	}
	return x
}

func refSatS(v uint64, w, to int) uint64 { return wrap(clamp(signed(v, w), to), w) }

func refAddSat(a uint64, aw int, b uint64, bw int, sub bool) uint64 {
	w := aw
	if bw > w {
		w = bw
	}
	s := new(big.Int)
	if sub {
		s.Sub(signed(a, aw), signed(b, bw))
	} else {
		s.Add(signed(a, aw), signed(b, bw))
	}
	if w < 64 {
		s = clamp(s, w)
	}
	return wrap(s, w)
}

// checkPair compares every two-operand kernel primitive on (a, b) at
// width w against the reference model.
func checkPair(t *testing.T, a, b uint64, w int) {
	t.Helper()
	type row struct {
		name      string
		got, want uint64
	}
	rows := []row{
		{"Shl", Shl(a, b, w), refShl(a, b, w)},
		{"ShrU", ShrU(a, b, w), refShrU(a, b, w)},
		{"ShrS", ShrS(a, b, w), refShrS(a, b, w)},
		{"DivS", DivS(a, b, w), refDiv(a, b, w, true)},
		{"DivU", DivU(a, b, w), refDiv(a, b, w, false)},
		{"RemS", RemS(a, b, w), refRem(a, b, w, true)},
		{"RemU", RemU(a, b, w), refRem(a, b, w, false)},
		{"MinS", MinS(a, b, w), refMin(a, b, w, true, false)},
		{"MaxS", MaxS(a, b, w), refMin(a, b, w, true, true)},
		{"MinU", MinU(a, b), refMin(a, b, w, false, false)},
		{"MaxU", MaxU(a, b), refMin(a, b, w, false, true)},
		{"AddSat", AddSat(a, w, b, w, false), refAddSat(a, w, b, w, false)},
		{"SubSat", AddSat(a, w, b, w, true), refAddSat(a, w, b, w, true)},
	}
	for _, r := range rows {
		if r.got != r.want {
			t.Fatalf("%s(%#x, %#x) at width %d = %#x, want %#x", r.name, a, b, w, r.got, r.want)
		}
	}
}

// checkOne compares every one-operand kernel primitive on v at width w.
func checkOne(t *testing.T, v uint64, w int) {
	t.Helper()
	if got, want := SignExt(v, w), wrap(signed(v, w), 64); got != want {
		t.Fatalf("SignExt(%#x, %d) = %#x, want %#x", v, w, got, want)
	}
	if got, want := Abs(v, w), refAbs(v, w); got != want {
		t.Fatalf("Abs(%#x, %d) = %#x, want %#x", v, w, got, want)
	}
	for to := 1; to <= 64; to++ {
		if got, want := SatS(v, w, to), refSatS(v, w, to); got != want {
			t.Fatalf("SatS(%#x, %d, %d) = %#x, want %#x", v, w, to, got, want)
		}
	}
}

// TestKernelExhaustiveSmallWidths checks every primitive on every
// operand pair at widths 1 through 8, and the saturating add and
// subtract on every pair of operand widths up to 8.
func TestKernelExhaustiveSmallWidths(t *testing.T) {
	for w := 1; w <= 8; w++ {
		if got, want := Mask(w), refMask(w); got != want {
			t.Fatalf("Mask(%d) = %#x, want %#x", w, got, want)
		}
		n := uint64(1) << uint(w)
		for a := uint64(0); a < n; a++ {
			checkOne(t, a, w)
			for b := uint64(0); b < n; b++ {
				checkPair(t, a, b, w)
			}
			for bw := 1; bw < w; bw++ {
				for b := uint64(0); b < 1<<uint(bw); b++ {
					for _, sub := range []bool{false, true} {
						if got, want := AddSat(a, w, b, bw, sub), refAddSat(a, w, b, bw, sub); got != want {
							t.Fatalf("AddSat(%#x, %d, %#x, %d, sub=%v) = %#x, want %#x", a, w, b, bw, sub, got, want)
						}
						if got, want := AddSat(b, bw, a, w, sub), refAddSat(b, bw, a, w, sub); got != want {
							t.Fatalf("AddSat(%#x, %d, %#x, %d, sub=%v) = %#x, want %#x", b, bw, a, w, sub, got, want)
						}
					}
				}
			}
		}
	}
}

// boundary returns the payloads at width w where wrapping, sign and
// overflow rules change: around zero, the sign bit and the all-ones value.
func boundary(w int) []uint64 {
	m := Mask(w)
	sign := uint64(1) << uint(w-1)
	vs := []uint64{0, 1, 2, 3, 5, 31, 32, 33, 63, 64, 65, m, m - 1, m - 2, sign, sign - 1, sign + 1, sign >> 1, m >> 1, 0x5555555555555555 & m, 0xaaaaaaaaaaaaaaaa & m}
	for i := range vs {
		vs[i] &= m
	}
	return vs
}

// TestKernelBoundaryWidths checks every primitive on all pairs of
// boundary payloads at the widths where 32- and 64-bit host arithmetic
// could leak through: 31, 32, 33, 63 and 64.
func TestKernelBoundaryWidths(t *testing.T) {
	for _, w := range []int{31, 32, 33, 63, 64} {
		if got, want := Mask(w), refMask(w); got != want {
			t.Fatalf("Mask(%d) = %#x, want %#x", w, got, want)
		}
		vs := boundary(w)
		for _, a := range vs {
			checkOne(t, a, w)
			for _, b := range vs {
				checkPair(t, a, b, w)
				for _, bw := range []int{1, 8, 16, 32, 33, 63, 64} {
					bb := b & Mask(bw)
					for _, sub := range []bool{false, true} {
						if got, want := AddSat(a, w, bb, bw, sub), refAddSat(a, w, bb, bw, sub); got != want {
							t.Fatalf("AddSat(%#x, %d, %#x, %d, sub=%v) = %#x, want %#x", a, w, bb, bw, sub, got, want)
						}
					}
				}
			}
		}
	}
}

// TestKernelMaskAndBool pins the edge widths of Mask and the two
// non-arithmetic selectors.
func TestKernelMaskAndBool(t *testing.T) {
	for _, c := range []struct {
		w    int
		want uint64
	}{{-1, 0}, {0, 0}, {64, ^uint64(0)}, {65, ^uint64(0)}} {
		if got := Mask(c.w); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.w, got, c.want)
		}
	}
	if Bool(true) != 1 || Bool(false) != 0 {
		t.Error("Bool is not 1/0")
	}
	if Select(true, 7, 9) != 7 || Select(false, 7, 9) != 9 {
		t.Error("Select picks the wrong operand")
	}
}
