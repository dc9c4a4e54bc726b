package bench

import (
	"sort"
	"sync"
	"time"
)

// Host speed references.
//
// The CPU speed of a shared VM drifts by tens of percent over minutes,
// and every time a run measures drifts with it: two sets of runs of the
// same code, minutes apart, differed by up to 45% in their medians. The
// harness therefore times fixed units of work that do not involve the
// program, interleaved with the reads it measures and around every
// server start, and reports each time at the reference speed: a time d
// measured where a reference unit took r is reported as d × nominal / r,
// where nominal is the unit's time on the VM the benchmark was set up
// on; a rate is scaled by the inverse. A change in the program moves d
// and leaves r alone; a slower host moves both.
//
// Two units cover the two kinds of work the metrics time, and a
// reference child process of the harness runs both. The echo unit is an
// HTTP round trip to the child, which answers with a fixed body: a
// /query is mostly HTTP, handler and JSON. The CPU unit is a compute
// loop the child runs on two threads at once: the exact solve behind
// start-up and the top-k scan use both CPUs. Neither involves the
// program, and both run while the measured server idles.

// Nominal unit times: about what the units take on the 2-vCPU x86 VM the
// benchmark was set up on when it is quiet, so that reported values are
// close to what a run there measures.
const (
	// EchoRefNominal is one round trip to the reference child, sent
	// right after another.
	EchoRefNominal = 22 * time.Microsecond
	// CPURefNominal is one CPU unit (see CPUUnit) run after the child
	// idled for a few milliseconds: waking its threads is part of it.
	CPURefNominal = 2300 * time.Microsecond
)

// CPUUnitSteps sizes the CPU unit at about one top-k read. Waking the
// child's second thread takes from nothing to 0.4 ms depending on the
// host's state; a top-k read pays it to wake the server's scoring pool,
// and a unit of the same length pays it in the same proportion. A unit a
// fifth as long swung between 0.4 and 0.8 ms with it while top-k reads
// moved 20%.
const CPUUnitSteps = 600000

// refTableBits sizes the CPU unit's table at 256 KiB, inside a typical
// L2: a larger table evicted the server's working set between the reads
// the unit is interleaved with, and slowed them.
const refTableBits = 16

var refTable = sync.OnceValue(func() []uint32 {
	t := make([]uint32, 1<<refTableBits)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
})

// cpuSteps is the CPU work: steps dependent loads through a
// pseudo-random table, each mixed into a multiplicative hash. Its result
// depends only on the table and steps.
func cpuSteps(steps int) uint32 {
	t := refTable()
	h, j := uint32(1), uint32(0)
	for i := 0; i < steps; i++ {
		j = t[(j^h)&(1<<refTableBits-1)]
		h = h*16777619 ^ j
	}
	return h
}

// cpuSink keeps the compiler from discarding the CPU work.
var cpuSink [2]uint32

// CPUUnit runs CPUUnitSteps of the CPU work on two goroutines at once
// and returns the time until both finish. The caller needs GOMAXPROCS of
// at least 2 for them to run in parallel.
func CPUUnit() time.Duration {
	refTable()
	t0 := time.Now()
	var wg sync.WaitGroup
	for k := range cpuSink {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cpuSink[k] += cpuSteps(CPUUnitSteps)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// MedianDuration returns the median of ds (0 for none); ds is reordered.
func MedianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	if n := len(ds); n%2 == 0 {
		return (ds[n/2-1] + ds[n/2]) / 2
	}
	return ds[len(ds)/2]
}

// AtRef scales a time measured where a reference unit took ref to the
// reference speed, at which the unit takes nominal.
func AtRef(d float64, ref, nominal time.Duration) float64 {
	return d * float64(nominal) / float64(ref)
}
