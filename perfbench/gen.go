package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Kernel is one generated program. Simple16 kernels initialise their own
// data and check their own result: they halt only when the checksum of
// their output region equals the one the generator computed from its own
// Go model of the arithmetic, and loop forever otherwise. C62x
// kernels receive Data through the simulator's memory before each run and
// are checked against the interpretive engine alone.
type Kernel struct {
	Name   string
	Source string
	Data   []memWord // c62x: poked into data_mem before each run
}

// memWord is one data_mem word.
type memWord struct{ Addr, Value uint64 }

// The loops below respect simple16's load timing: LD reads its base
// register and writes its destination in WB, after the EX stage of the
// next instruction, so that instruction must neither change the base nor
// read the destination.
//
// Memory layout shared by the simple16 families. Every address stays
// below 2048 so one LD/ST with base B0 (always zero) and an 11-bit offset
// reaches it.
const (
	s16X   = 0    // input samples / first vector
	s16H   = 600  // taps / second vector
	s16Y   = 1200 // outputs
	s16Max = 580  // longest input or output array
)

var s16Families = []string{"fir", "dot", "biquad", "memcpy", "sumsq"}

// s16Kernel generates one simple16 kernel of the given family whose run
// takes close to target simulated cycles. The seed draws the shape (taps,
// block length, coefficients) and the data; the number of passes over the
// block is then chosen to reach the target.
func s16Kernel(rng *rand.Rand, family string, target int, name string) Kernel {
	var (
		data    = map[uint64]int32{}
		body    strings.Builder // one pass over the block
		outLen  int             // words of output checked
		out     []int32         // expected outputs of one pass
		perPass int             // cycles of one pass
	)
	val := func(lo, hi int) int32 { return int32(lo + rng.Intn(hi-lo+1)) }
	w := func(format string, args ...any) { fmt.Fprintf(&body, format+"\n", args...) }
	// block picks a block length that keeps one pass at most 1/32 of the
	// target, so the pass count lands the run within a few percent of it.
	// The draw stays within the top fifth of the allowed range: the block
	// length sets the data image and with it the distinct instruction
	// words, the set-up work and the memory, which should not swing with
	// the seed.
	block := func(cyclesPerElem, lo int) int {
		hi := min(target/32/cyclesPerElem, s16Max)
		lo = max(lo, hi*4/5)
		if hi < lo {
			hi = lo
		}
		return lo + rng.Intn(hi-lo+1)
	}

	switch family {
	case "fir":
		taps := 4 + rng.Intn(13)
		m := block(9*taps+14, 4)
		x := make([]int32, m+taps-1)
		h := make([]int32, taps)
		for i := range x {
			x[i] = val(-2000, 2000)
			data[uint64(s16X+i)] = x[i]
		}
		for i := range h {
			h[i] = val(-300, 300)
			data[uint64(s16H+i)] = h[i]
		}
		for n := 0; n < m; n++ {
			var acc int64
			for k := 0; k < taps; k++ {
				acc = wrap40(acc + int64(h[k])*int64(x[n+k]))
			}
			out = append(out, sat32(acc))
		}
		outLen = m
		w("pass:   LDI A9, 0")
		w("        LDI A10, %d", m)
		w("        LDI A3, %d", s16Y)
		w("outer:  CLRACC")
		w("        LDI A8, %d", taps)
		w("        LDI A4, %d", s16H)
		w("        LDI A5, %d", s16X)
		w("        NOP")
		w("        ADD A5, A5, A9")
		w("inner:  LD  A6, A4, 0")
		w("        LD  A7, A5, 0")
		w("        ADD A4, A4, B1")
		w("        MAC A6, A7")
		w("        ADD A5, A5, B1")
		w("        SUB A8, A8, B1")
		w("        BNZ A8, inner")
		w("        NOP")
		w("        NOP")
		w("        SAT A6")
		w("        ST  A6, A3, 0")
		w("        ADD A3, A3, B1")
		w("        ADD A9, A9, B1")
		w("        SUB A10, A10, B1")
		w("        BNZ A10, outer")
		w("        NOP")
		w("        NOP")
		perPass = 3 + m*(9*taps+14)
	case "dot":
		n := block(9, 8)
		var acc int64
		for i := 0; i < n; i++ {
			a, b := val(-2000, 2000), val(-2000, 2000)
			data[uint64(s16X+i)] = a
			data[uint64(s16H+i)] = b
			acc = wrap40(acc + int64(a)*int64(b))
		}
		out = []int32{sat32(acc)}
		outLen = 1
		w("pass:   LDI A8, %d", n)
		w("        LDI A4, %d", s16X)
		w("        LDI A5, %d", s16H)
		w("        CLRACC")
		w("loop:   LD  A6, A4, 0")
		w("        LD  A7, A5, 0")
		w("        ADD A4, A4, B1")
		w("        MAC A6, A7")
		w("        ADD A5, A5, B1")
		w("        SUB A8, A8, B1")
		w("        BNZ A8, loop")
		w("        NOP")
		w("        NOP")
		w("        SAT A0")
		w("        ST  A0, B0, %d", s16Y)
		perPass = 6 + 9*n
	case "biquad":
		n := block(22, 8)
		c := []int32{val(-3, 3), val(-3, 3), val(-3, 3), val(-1, 1), val(-1, 1)}
		var x1, x2, y1, y2 int32
		for i := 0; i < n; i++ {
			x := val(-1000, 1000)
			data[uint64(s16X+i)] = x
			var acc int64
			for k, v := range []int32{x, x1, x2, y1, y2} {
				acc = wrap40(acc + int64(v)*int64(c[k]))
			}
			y := sat32(acc)
			out = append(out, y)
			x2, x1, y2, y1 = x1, x, y1, y
		}
		outLen = n
		w("pass:   LDI B4, %d", c[0])
		w("        LDI B5, %d", c[1])
		w("        LDI B6, %d", c[2])
		w("        LDI B7, %d", c[3])
		w("        LDI B8, %d", c[4])
		w("        LDI A8, %d", n)
		w("        LDI A4, %d", s16X)
		w("        LDI A3, %d", s16Y)
		w("        LDI A11, 0")
		w("        LDI A12, 0")
		w("        LDI A14, 0")
		w("        LDI A15, 0")
		w("loop:   LD  A6, A4, 0")
		w("        CLRACC")
		w("        NOP")
		w("        MAC A6, B4")
		w("        MAC A11, B5")
		w("        MAC A12, B6")
		w("        MAC A14, B7")
		w("        MAC A15, B8")
		w("        SAT A7")
		w("        ADD A12, A11, B0")
		w("        ADD A11, A6, B0")
		w("        ADD A15, A14, B0")
		w("        ADD A14, A7, B0")
		w("        ST  A7, A3, 0")
		w("        ADD A3, A3, B1")
		w("        ADD A4, A4, B1")
		w("        SUB A8, A8, B1")
		w("        BNZ A8, loop")
		w("        NOP")
		w("        NOP")
		perPass = 12 + 20*n
	case "memcpy":
		n := block(9, 8)
		for i := 0; i < n; i++ {
			v := val(-30000, 30000)
			data[uint64(s16X+i)] = v
			out = append(out, v)
		}
		outLen = n
		w("pass:   LDI A8, %d", n)
		w("        LDI A4, %d", s16X)
		w("        LDI A5, %d", s16Y)
		w("loop:   LD  A6, A4, 0")
		w("        NOP")
		w("        ADD A4, A4, B1")
		w("        ST  A6, A5, 0")
		w("        ADD A5, A5, B1")
		w("        SUB A8, A8, B1")
		w("        BNZ A8, loop")
		w("        NOP")
		w("        NOP")
		perPass = 3 + 9*n
	case "sumsq":
		n := block(8, 8)
		var acc int64
		for i := 0; i < n; i++ {
			v := val(-3000, 3000)
			data[uint64(s16X+i)] = v
			acc = wrap40(acc + int64(v)*int64(v))
		}
		out = []int32{sat32(acc)}
		outLen = 1
		w("pass:   LDI A8, %d", n)
		w("        LDI A4, %d", s16X)
		w("        CLRACC")
		w("loop:   LD  A6, A4, 0")
		w("        NOP")
		w("        ADD A4, A4, B1")
		w("        MAC A6, A6")
		w("        SUB A8, A8, B1")
		w("        BNZ A8, loop")
		w("        NOP")
		w("        NOP")
		w("        SAT A0")
		w("        ST  A0, B0, %d", s16Y)
		perPass = 5 + 8*n
	default:
		panic("unknown simple16 family " + family)
	}

	// Prologue: constants and the data image; epilogue: the pass loop and
	// the self-check over the output region.
	var sum int32
	for _, v := range out {
		sum += v
	}
	fixed := 2*len(data) + 6*outLen + 20
	passes := (target - fixed) / perPass
	if passes < 1 {
		passes = 1
	}
	var src strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&src, format+"\n", args...) }
	p("; %s: %s, %d passes", name, family, passes)
	p("        LDI B1, 1")
	for _, addr := range sortedKeys(data) {
		if data[addr] != 0 {
			p("        LDI A1, %d", data[addr])
			p("        ST  A1, B0, %d", addr)
		}
	}
	p("        LDI A13, %d", passes)
	src.WriteString(body.String())
	p("        SUB A13, A13, B1")
	p("        BNZ A13, pass")
	p("        NOP")
	p("        NOP")
	p("        LDI A8, %d", outLen)
	p("        LDI A4, %d", s16Y)
	p("        LDI A3, 0")
	p("check:  LD  A6, A4, 0")
	p("        SUB A8, A8, B1")
	p("        ADD A4, A4, B1")
	p("        ADD A3, A3, A6")
	p("        BNZ A8, check")
	p("        NOP")
	p("        NOP")
	loadConst(p, "A2", sum)
	p("        SUB A3, A3, A2")
	p("        BNZ A3, fail")
	p("        NOP")
	p("        NOP")
	p("        HALT")
	p("fail:   B fail")
	p("        NOP")
	p("        NOP")
	return Kernel{Name: name, Source: src.String()}
}

// loadConst materialises a 32-bit constant with 16-bit immediates:
// hi·65536 + lo, where the multiply by 65536 is two multiplies by 256 and
// all arithmetic wraps at 32 bits like the machine's.
func loadConst(p func(string, ...any), reg string, v int32) {
	if v >= math.MinInt16 && v <= math.MaxInt16 {
		p("        LDI %s, %d", reg, v)
		return
	}
	lo := int16(v)
	hi := int16((int64(v) - int64(lo)) >> 16)
	p("        LDI %s, %d", reg, hi)
	p("        LDI A12, 256")
	p("        MPY %s, %s, A12", reg, reg)
	p("        MPY %s, %s, A12", reg, reg)
	p("        LDI A12, %d", lo)
	p("        ADD %s, %s, A12", reg, reg)
}

// wrap40 truncates to the 40-bit accumulator, sign-extending the result.
func wrap40(v int64) int64 { return v << 24 >> 24 }

// sat32 is the model's saturate(accu, 32).
func sat32(v int64) int32 {
	switch {
	case v > math.MaxInt32:
		return math.MaxInt32
	case v < math.MinInt32:
		return math.MinInt32
	}
	return int32(v)
}

var c62xFamilies = []string{"dot-serial", "dot-packed", "vecmax"}

// c62xPacket pads one execute packet to a full 8-word fetch packet.
func c62xPacket(insns ...string) string {
	var sb strings.Builder
	for _, in := range insns {
		sb.WriteString(in + "\n")
	}
	for i := len(insns); i < 8; i++ {
		sb.WriteString("|| NOP\n")
	}
	return sb.String()
}

// c62xKernel generates one c62x kernel of close to target cycles. Loop
// heads sit at fixed fetch-packet boundaries (word address = 8 × packet
// index), so the branch targets below are constants of each template.
func c62xKernel(rng *rand.Rand, family string, target int, name string) Kernel {
	var data []memWord
	put := func(addr uint64, v int32) { data = append(data, memWord{addr, uint64(uint32(v))}) }
	val := func(lo, hi int) int32 { return int32(lo + rng.Intn(hi-lo+1)) }
	nops := func(n int) string { return strings.Repeat(c62xPacket("NOP"), n) }
	var s string
	switch family {
	case "dot-serial":
		n := target / 15
		for i := 0; i < n; i++ {
			put(uint64(i), val(-2000, 2000))
			put(uint64(1000+i), val(-2000, 2000))
		}
		s = c62xPacket("MVK .S1 A3, 1") +
			c62xPacket(fmt.Sprintf("MVK .S1 A8, %d", n)) +
			c62xPacket("MVK .S1 A4, 0") +
			c62xPacket("MVK .S1 A5, 1000") +
			c62xPacket("MVK .S1 A9, 0") +
			nops(1)
		// loop head at word 48
		s += c62xPacket("LDW .D1 *A4[0], A6") +
			c62xPacket("LDW .D2 *A5[0], A7") +
			c62xPacket("ADD .L1 A4, A4, A3") +
			c62xPacket("ADD .L2 A5, A5, A3") +
			c62xPacket("NOP 1") +
			c62xPacket("MPY .M1 A10, A6, A7") +
			c62xPacket("SUB .L1 A8, A8, A3") +
			c62xPacket("ADD .L1 A9, A9, A10") +
			c62xPacket("BNZ .S1 A8, 48") +
			nops(5)
	case "dot-packed":
		n := target / 11
		for i := 0; i < n; i++ {
			put(uint64(i), val(-2000, 2000))
			put(uint64(1000+i), val(-2000, 2000))
		}
		s = c62xPacket("MVK .S1 A3, 1", fmt.Sprintf("|| MVK .S2 A8, %d", n)) +
			c62xPacket("MVK .S1 A4, 0", "|| MVK .S2 A5, 1000", "|| MVK .S1 A9, 0") +
			nops(1)
		// loop head at word 24
		s += c62xPacket("LDW .D1 *A4[0], A6", "|| LDW .D2 *A5[0], A7") +
			c62xPacket("ADD .L1 A4, A4, A3", "|| ADD .L2 A5, A5, A3", "|| SUB .L1 A8, A8, A3") +
			c62xPacket("NOP 1") +
			c62xPacket("MPY .M1 A10, A6, A7") +
			c62xPacket("BNZ .S1 A8, 24") +
			c62xPacket("ADD .L1 A9, A9, A10") + // delay slot 1: accumulate
			nops(4)
	case "vecmax":
		n := target / 23
		for i := 0; i < n; i++ {
			put(uint64(i), val(-30000, 30000))
		}
		s = c62xPacket("MVK .S1 A3, 1") +
			c62xPacket(fmt.Sprintf("MVK .S1 A8, %d", n)) +
			c62xPacket("MVK .S1 A4, 0") +
			c62xPacket("MVK .S1 A9, -32768") + // running max
			nops(2)
		// loop head at word 48
		s += c62xPacket("LDW .D1 *A4[0], A6") +
			c62xPacket("ADD .L1 A4, A4, A3") +
			c62xPacket("NOP 3") +
			c62xPacket("CMPGT .L1 B2, A6, A9") +
			c62xPacket("BZ .S1 B2, 96") + // skip the update
			nops(5) +
			c62xPacket("ADD .L1 A9, A6, A0") + // max = x (word 88)
			// join at word 96
			c62xPacket("SUB .L1 A8, A8, A3") +
			c62xPacket("BNZ .S1 A8, 48") +
			nops(5)
	default:
		panic("unknown c62x family " + family)
	}
	s += c62xPacket("STW .D1 A9, *A0[2000]") + nops(3) + c62xPacket("IDLE") + nops(1)
	return Kernel{Name: name, Source: s, Data: data}
}

// jitter scales n by a seeded factor in [1-f, 1+f].
func jitter(rng *rand.Rand, n int, f float64) int {
	return int(float64(n) * (1 - f + 2*f*rng.Float64()))
}

// Job set sizes. Targets are simulated cycles per run.
const (
	s16LongTarget  = 100_000 // s16-long: every kernel, ±3%
	c62xTarget     = 10_000  // c62x-observed: every kernel, ±3%
	batchPrograms  = 24      // distinct programs in a batch
	batchRepeats   = 16      // jobs per distinct program
	batchMinTarget = 1_000   // smallest batch program
	batchMaxTarget = 10_000  // largest batch program
)

// genS16Long draws one kernel per simple16 family, each of about the same
// length, so the run-time distribution barely depends on the seed.
func genS16Long(seed int64, scale float64) []Kernel {
	rng := rand.New(rand.NewSource(seed))
	var ks []Kernel
	for i, fam := range s16Families {
		target := jitter(rng, int(s16LongTarget*scale), 0.03)
		ks = append(ks, s16Kernel(rng, fam, target, fmt.Sprintf("%s-%d", fam, i)))
	}
	return ks
}

// genC62x draws one kernel per c62x family, each of about the same length.
func genC62x(seed int64, scale float64) []Kernel {
	rng := rand.New(rand.NewSource(seed))
	var ks []Kernel
	for i, fam := range c62xFamilies {
		target := jitter(rng, int(c62xTarget*scale), 0.03)
		ks = append(ks, c62xKernel(rng, fam, target, fmt.Sprintf("%s-%d", fam, i)))
	}
	return ks
}

// genBatch draws the distinct batch programs and the job order. Program i
// targets the i-th of batchPrograms log-spaced lengths between
// batchMinTarget and batchMaxTarget, so every seed has the same spread of
// job lengths; the family, shape, data and job order come from the seed.
// The returned order lists each program index batchRepeats times.
func genBatch(seed int64, scale float64) ([]Kernel, []int) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(s16Families))
	var ks []Kernel
	for i := 0; i < batchPrograms; i++ {
		f := float64(i) / float64(batchPrograms-1)
		base := batchMinTarget * math.Pow(batchMaxTarget/batchMinTarget, f) * scale
		fam := s16Families[perm[i%len(perm)]]
		ks = append(ks, s16Kernel(rng, fam, jitter(rng, int(base), 0.03), fmt.Sprintf("p%02d-%s", i, fam)))
	}
	order := make([]int, 0, batchPrograms*batchRepeats)
	for r := 0; r < batchRepeats; r++ {
		for i := range ks {
			order = append(order, i)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return ks, order
}
