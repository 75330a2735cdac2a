// FIR filter on the simple16 DSP: the kernel the paper's introduction
// motivates (DSP software development against a cycle-accurate model).
//
// An N-tap FIR runs over M samples entirely in simulated assembly — loads,
// MAC accumulation, saturation, stores and both loop levels with their
// branch delay slots — and the result is checked against a Go reference.
// The same program runs on both in-process simulators to show the cycle
// counts agree while the wall-clock speed differs (the paper's
// compiled-simulation claim).
//
//	go run ./examples/fir
package main

import (
	_ "embed"
	"fmt"
	"log"
	"time"

	"golisa"
)

const (
	taps    = 8
	samples = 32
	hBase   = 0   // coefficients at data_mem[0..taps-1]
	xBase   = 100 // input samples
	yBase   = 200 // outputs
)

// The kernel lives in prog/fir.s (a subdirectory, so the Go toolchain
// does not mistake it for Go assembly) and the same program also runs
// standalone:
//
//	lisa-sim -model simple16 -profile fir.pb.gz examples/fir/prog/fir.s
//
//go:embed prog/fir.s
var firProgram string

func main() {
	machine, err := golisa.LoadBuiltin("simple16")
	if err != nil {
		log.Fatal(err)
	}

	// Test vectors.
	h := make([]int64, taps)
	x := make([]int64, samples+taps)
	for k := range h {
		h[k] = int64(k + 1)
	}
	for n := range x {
		x[n] = int64((n%7 - 3) * 10)
	}
	want := make([]int64, samples)
	for n := range want {
		var acc int64
		for k := 0; k < taps; k++ {
			acc += h[k] * x[n+k]
		}
		want[n] = acc
	}

	runMode := func(name string, mode golisa.Mode) {
		sim, _, err := machine.AssembleAndLoad(firProgram, mode)
		if err != nil {
			log.Fatal(err)
		}
		for k, v := range h {
			_ = sim.SetMem("data_mem", uint64(hBase+k), uint64(v))
		}
		for n, v := range x {
			_ = sim.SetMem("data_mem", uint64(xBase+n), uint64(v))
		}
		start := time.Now()
		steps, err := sim.Run(1_000_000)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)

		bad := 0
		for n := range want {
			got, _ := sim.Mem("data_mem", uint64(yBase+n))
			if got.Int() != want[n] {
				bad++
				if bad <= 3 {
					fmt.Printf("  y[%d] = %d, want %d\n", n, got.Int(), want[n])
				}
			}
		}
		status := "all outputs match the Go reference"
		if bad > 0 {
			status = fmt.Sprintf("%d outputs WRONG", bad)
		}
		fmt.Printf("%-18s %7d cycles  %10v wall  %8.2f Mcycles/s  — %s\n",
			name, steps, elapsed.Round(time.Microsecond),
			float64(steps)/elapsed.Seconds()/1e6, status)
	}

	fmt.Printf("%d-tap FIR over %d samples on simple16:\n\n", taps, samples)
	runMode("interpretive", golisa.Interpretive)
	runMode("compiled", golisa.Compiled)
}
