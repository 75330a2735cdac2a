// Package kernel is the bit-accurate integer semantics of the LISA
// behavior language over raw payload words. A payload is a uint64
// holding a value of static width w (1..64) zero-extended; every result
// is masked back to its width. Signed operations sign-extend from w.
//
// This file is the single definition every engine executes: bitvec.Value
// wraps these functions for the two behavior engines, the IR's threaded
// code calls them directly, and gosim's emitter pastes this file,
// minus its package clause, verbatim into every generated runner. It must
// therefore stay import-free and self-contained.
package kernel

// Mask returns the mask of the low w bits: 0 for w <= 0, all ones for
// w >= 64.
func Mask(w int) uint64 {
	if w <= 0 {
		return 0
	}
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// SignExt sign-extends the low w bits of v to 64 bits, ignoring the
// bits above w. For w outside 1..63 it returns v unchanged.
func SignExt(v uint64, w int) uint64 {
	if w <= 0 || w >= 64 {
		return v
	}
	sh := uint(64 - w)
	return uint64(int64(v<<sh) >> sh)
}

// Bool is the 1-bit value of a condition: 1 for true, 0 for false.
func Bool(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Select returns a when c holds and b otherwise (the ?: operator on
// operands that are already evaluated).
func Select(c bool, a, b uint64) uint64 {
	if c {
		return a
	}
	return b
}

// Shl shifts a left by n at width w; counts of w or more clear it.
func Shl(a, n uint64, w int) uint64 {
	if n >= uint64(w) {
		return 0
	}
	return (a << n) & Mask(w)
}

// ShrU shifts a right by n at width w, filling with zeros; counts of w
// or more clear it.
func ShrU(a, n uint64, w int) uint64 {
	if n >= uint64(w) {
		return 0
	}
	return a >> n
}

// ShrS shifts a right by n at width w, filling with the sign bit; counts
// of w or more leave only sign bits.
func ShrS(a, n uint64, w int) uint64 {
	if n >= uint64(w) {
		n = uint64(w - 1)
	}
	return uint64(int64(SignExt(a, w))>>n) & Mask(w)
}

// DivS is the signed quotient a/b at width w. Division by zero yields
// all ones and the most negative 64-bit value divided by -1 yields
// itself, both deterministically, where Go would panic.
func DivS(a, b uint64, w int) uint64 {
	ai, bi := int64(SignExt(a, w)), int64(SignExt(b, w))
	switch {
	case bi == 0:
		return Mask(w)
	case ai == -1<<63 && bi == -1:
		return uint64(ai) & Mask(w)
	}
	return uint64(ai/bi) & Mask(w)
}

// DivU is the unsigned quotient a/b at width w; division by zero yields
// all ones.
func DivU(a, b uint64, w int) uint64 {
	if b == 0 {
		return Mask(w)
	}
	return (a / b) & Mask(w)
}

// RemS is the signed remainder a%b at width w; a zero divisor and the
// most negative 64-bit value modulo -1 both yield zero.
func RemS(a, b uint64, w int) uint64 {
	ai, bi := int64(SignExt(a, w)), int64(SignExt(b, w))
	if bi == 0 || (ai == -1<<63 && bi == -1) {
		return 0
	}
	return uint64(ai%bi) & Mask(w)
}

// RemU is the unsigned remainder a%b at width w; a zero divisor yields
// zero.
func RemU(a, b uint64, w int) uint64 {
	if b == 0 {
		return 0
	}
	return (a % b) & Mask(w)
}

// Abs is the magnitude of the signed value v at width w; the most
// negative value wraps to itself, as in hardware.
func Abs(v uint64, w int) uint64 {
	if int64(SignExt(v, w)) < 0 {
		return (-v) & Mask(w)
	}
	return v
}

// MinS is the smaller of a and b read as signed values of width w.
func MinS(a, b uint64, w int) uint64 {
	if int64(SignExt(a, w)) <= int64(SignExt(b, w)) {
		return a
	}
	return b
}

// MaxS is the larger of a and b read as signed values of width w.
func MaxS(a, b uint64, w int) uint64 {
	if int64(SignExt(a, w)) <= int64(SignExt(b, w)) {
		return b
	}
	return a
}

// MinU is the smaller of a and b read as unsigned values.
func MinU(a, b uint64) uint64 {
	if a <= b {
		return a
	}
	return b
}

// MaxU is the larger of a and b read as unsigned values.
func MaxU(a, b uint64) uint64 {
	if a <= b {
		return b
	}
	return a
}

// SatS clamps the signed value v of width w into the signed range of to
// bits (1..64) and returns the result at width w.
func SatS(v uint64, w, to int) uint64 {
	hi := int64(Mask(to - 1))
	lo := -hi - 1
	i := int64(SignExt(v, w))
	if i > hi {
		i = hi
	} else if i < lo {
		i = lo
	}
	return uint64(i) & Mask(w)
}

// AddSat adds (or, with sub, subtracts) the signed values a of width aw
// and b of width bw, saturating into the wider of the two widths, which
// is also the result's width. At 64 bits the sum wraps.
func AddSat(a uint64, aw int, b uint64, bw int, sub bool) uint64 {
	w := aw
	if bw > w {
		w = bw
	}
	ai, bi := int64(SignExt(a, aw)), int64(SignExt(b, bw))
	s := ai + bi
	if sub {
		s = ai - bi
	}
	if w < 64 {
		s = int64(SatS(uint64(s), 64, w))
	}
	return uint64(s) & Mask(w)
}
