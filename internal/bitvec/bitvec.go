// Package bitvec implements bit-accurate integer values of widths 1..64.
//
// LISA resources and behavior-language values carry an explicit bit width
// (e.g. REGISTER bit[48] accu). All arithmetic wraps modulo 2^width, exactly
// like the corresponding hardware register. A Value stores its payload
// zero-extended in a uint64; signed interpretations sign-extend from the
// declared width.
package bitvec

import (
	"fmt"
	"strconv"

	"golisa/internal/bitvec/kernel"
)

// MaxWidth is the widest representable value in bits.
const MaxWidth = 64

// Value is a bit-accurate integer of a fixed width between 1 and 64 bits.
// The zero Value behaves as a 1-bit zero and is not generally useful; build
// values with New.
type Value struct {
	bits  uint64
	width uint8
}

// Mask returns the bit mask covering width bits.
func Mask(width int) uint64 { return kernel.Mask(width) }

// New builds a Value of the given width from the low bits of raw.
// Widths outside [1,64] are clamped.
func New(raw uint64, width int) Value {
	if width < 1 {
		width = 1
	}
	if width > MaxWidth {
		width = MaxWidth
	}
	return Value{bits: raw & kernel.Mask(width), width: uint8(width)}
}

// FromInt builds a width-bit value from a signed integer (two's complement
// truncation).
func FromInt(v int64, width int) Value {
	return New(uint64(v), width)
}

// FromBool builds a 1-bit value.
func FromBool(b bool) Value {
	if b {
		return New(1, 1)
	}
	return New(0, 1)
}

// Width reports the value's width in bits.
func (v Value) Width() int { return int(v.width) }

// Uint returns the zero-extended payload.
func (v Value) Uint() uint64 { return v.bits }

// Int returns the payload sign-extended from the value's width.
func (v Value) Int() int64 { return int64(kernel.SignExt(v.bits, int(v.width))) }

// IsZero reports whether all bits are clear.
func (v Value) IsZero() bool { return v.bits == 0 }

// Bool reports whether the value is nonzero.
func (v Value) Bool() bool { return v.bits != 0 }

// Resize returns the value reinterpreted at a new width. Growing
// zero-extends; shrinking truncates.
func (v Value) Resize(width int) Value { return New(v.bits, width) }

// SignResize returns the value sign-extended (or truncated) to a new width.
func (v Value) SignResize(width int) Value { return FromInt(v.Int(), width) }

// Bit returns bit i (0 = LSB) as 0 or 1. Out-of-range bits read as 0.
func (v Value) Bit(i int) uint64 {
	if i < 0 || i >= int(v.width) {
		return 0
	}
	return (v.bits >> uint(i)) & 1
}

// SetBit returns a copy with bit i set to b&1. Out-of-range i is ignored.
func (v Value) SetBit(i int, b uint64) Value {
	if i < 0 || i >= int(v.width) {
		return v
	}
	if b&1 != 0 {
		v.bits |= uint64(1) << uint(i)
	} else {
		v.bits &^= uint64(1) << uint(i)
	}
	return v
}

// Slice extracts bits hi..lo (inclusive, hi >= lo) as a new value of width
// hi-lo+1, matching LISA's register-alias ranges like accu[47..16].
func (v Value) Slice(hi, lo int) Value {
	if hi < lo {
		hi, lo = lo, hi
	}
	w := hi - lo + 1
	return New(v.bits>>uint(lo), w)
}

// InsertSlice returns v with bits hi..lo replaced by the low bits of src.
func (v Value) InsertSlice(hi, lo int, src uint64) Value {
	if hi < lo {
		hi, lo = lo, hi
	}
	w := hi - lo + 1
	m := kernel.Mask(w) << uint(lo)
	v.bits = (v.bits &^ m) | ((src << uint(lo)) & m)
	v.bits &= kernel.Mask(int(v.width))
	return v
}

func widen(a, b Value) int {
	if a.width > b.width {
		return int(a.width)
	}
	return int(b.width)
}

// Add returns a+b at the wider operand width, wrapping.
func Add(a, b Value) Value { w := widen(a, b); return New(a.bits+b.bits, w) }

// Sub returns a-b at the wider operand width, wrapping.
func Sub(a, b Value) Value { w := widen(a, b); return New(a.bits-b.bits, w) }

// Mul returns a*b at the wider operand width, wrapping.
func Mul(a, b Value) Value { w := widen(a, b); return New(a.bits*b.bits, w) }

// DivS returns the signed quotient a/b; division by zero yields all-ones
// (matching common DSP "undefined" behaviour deterministically).
func DivS(a, b Value) Value {
	w := widen(a, b)
	return New(kernel.DivS(a.SignResize(w).bits, b.SignResize(w).bits, w), w)
}

// RemS returns the signed remainder a%b; remainder by zero yields zero.
func RemS(a, b Value) Value {
	w := widen(a, b)
	return New(kernel.RemS(a.SignResize(w).bits, b.SignResize(w).bits, w), w)
}

// And returns a&b at the wider operand width.
func And(a, b Value) Value { w := widen(a, b); return New(a.bits&b.bits, w) }

// Or returns a|b at the wider operand width.
func Or(a, b Value) Value { w := widen(a, b); return New(a.bits|b.bits, w) }

// Xor returns a^b at the wider operand width.
func Xor(a, b Value) Value { w := widen(a, b); return New(a.bits^b.bits, w) }

// Not returns the bitwise complement of v at its own width.
func Not(v Value) Value { return New(^v.bits, int(v.width)) }

// Neg returns the two's complement negation of v at its own width.
func Neg(v Value) Value { return New(-v.bits, int(v.width)) }

// Shl returns a << n at a's width. Shifts >= width clear the value.
func Shl(a Value, n uint) Value {
	return New(kernel.Shl(a.bits, uint64(n), int(a.width)), int(a.width))
}

// ShrU returns the logical right shift a >> n.
func ShrU(a Value, n uint) Value {
	return New(kernel.ShrU(a.bits, uint64(n), int(a.width)), int(a.width))
}

// ShrS returns the arithmetic right shift of a by n.
func ShrS(a Value, n uint) Value {
	return New(kernel.ShrS(a.bits, uint64(n), int(a.width)), int(a.width))
}

// CmpS compares signed: -1, 0 or +1.
func CmpS(a, b Value) int {
	ai, bi := a.Int(), b.Int()
	switch {
	case ai < bi:
		return -1
	case ai > bi:
		return 1
	default:
		return 0
	}
}

// CmpU compares unsigned: -1, 0 or +1.
func CmpU(a, b Value) int {
	switch {
	case a.bits < b.bits:
		return -1
	case a.bits > b.bits:
		return 1
	default:
		return 0
	}
}

// Eq reports payload equality ignoring width differences (values compare by
// their zero-extended bits, as LISA behavior code does).
func Eq(a, b Value) bool { return a.bits == b.bits }

// SignExtend reinterprets the low from bits of v as signed and extends to
// v's full width. It models the behavior builtin sign_extend(x, from).
func SignExtend(v Value, from int) Value {
	if from < 1 {
		from = 1
	}
	if from > int(v.width) {
		from = int(v.width)
	}
	return New(kernel.SignExt(v.bits, from), int(v.width))
}

// ZeroExtend clears all bits of v above from. It models zero_extend(x, from).
func ZeroExtend(v Value, from int) Value {
	if from < 1 {
		from = 1
	}
	if from > int(v.width) {
		from = int(v.width)
	}
	return New(v.bits&kernel.Mask(from), int(v.width))
}

// SatS saturates the signed value of v into to bits, returned at v's width.
// It models the DSP saturate(x, to) builtin.
func SatS(v Value, to int) Value {
	if to < 1 {
		to = 1
	}
	if to > 64 {
		to = 64
	}
	return New(kernel.SatS(v.bits, int(v.width), to), int(v.width))
}

// AddSat performs signed saturating addition at the wider operand width.
func AddSat(a, b Value) Value {
	return New(kernel.AddSat(a.bits, int(a.width), b.bits, int(b.width), false), widen(a, b))
}

// SubSat performs signed saturating subtraction at the wider operand width.
func SubSat(a, b Value) Value {
	return New(kernel.AddSat(a.bits, int(a.width), b.bits, int(b.width), true), widen(a, b))
}

// Abs returns |v| at v's width (the most negative value wraps, like hardware).
func Abs(v Value) Value { return New(kernel.Abs(v.bits, int(v.width)), int(v.width)) }

// String renders the value as 0x… with its width, e.g. "0x002a:16".
func (v Value) String() string {
	return fmt.Sprintf("0x%0*x:%d", (int(v.width)+3)/4, v.bits, v.width)
}

// BinString renders the value as a binary string of exactly width digits.
func (v Value) BinString() string {
	s := strconv.FormatUint(v.bits, 2)
	for len(s) < int(v.width) {
		s = "0" + s
	}
	return s
}
