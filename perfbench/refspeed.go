package main

import "time"

// The throughput metrics are given per reference second rather than per
// host second. The host gives the benchmark a few vCPUs of a shared
// machine whose speed drifts by a quarter or more from one minute to the
// next, and every figure of a run moves with it. A fixed reference
// kernel, timed between the measured operations on the goroutine that
// runs them, sees the same drift; dividing the median host-time rate by
// the kernel's median speed over the same stretch leaves the program's
// own speed. The kernel is part of the benchmark, so a change to the
// program never changes what a reference second is.
//
// refOpsPerSecond defines the reference second: the time the kernel
// takes for that many iterations, about one second on the 2-vCPU Xeon
// host the benchmark was defined on. refQuantum is how many iterations
// one speed sample runs (about 30 ms there, long enough that a few
// milliseconds of descheduling move it little). refTableLen sizes the
// kernel's table, 1 MiB, so the kernel mixes branches, arithmetic and
// cache misses as the simulator does.
const (
	refOpsPerSecond = 1e8
	refQuantum      = 3_000_000
	refTableLen     = 1 << 17
)

// refKernel times the reference kernel.
type refKernel struct {
	table []uint64
	sink  uint64
}

// newRefKernel allocates the table and runs the kernel once, so page
// faults and first use are paid before the first sample.
func newRefKernel() *refKernel {
	k := &refKernel{table: make([]uint64, refTableLen)}
	k.speed()
	return k
}

// speed runs one quantum and returns the host's speed in reference
// seconds per host second. One sample is noisy; the bodies take them
// between their measured operations and use the median of all of them.
func (k *refKernel) speed() float64 {
	start := time.Now()
	k.sink += refLoop(k.table, refQuantum)
	return refQuantum / time.Since(start).Seconds() / refOpsPerSecond
}

// refLoop is the kernel: n xorshift steps, each a random read-modify-
// write of t with a data-dependent branch.
func refLoop(t []uint64, n int) uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	mask := uint64(len(t) - 1)
	var acc uint64
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		v := t[j]
		if v&1 == 0 {
			acc += v >> 3
		} else {
			acc ^= v * 0x9E3779B97F4A7C15
		}
		t[j] = v + x
	}
	return acc
}

// perRefSecond turns a rate per host second into a rate per reference
// second, given the speed samples taken while the rate was measured.
func perRefSecond(rate float64, speeds []float64) float64 {
	return ratio(rate, median(speeds))
}
