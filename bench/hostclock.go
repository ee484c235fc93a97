// Host-side measurement primitives: the wall clock, process CPU time and
// the Go heap counters. Everything the benchmark reports as "host" comes
// through this file; everything else in the package reads virtual time.
//
// ddlint:allow-wallclock — measuring the real Go code's wall clock is this
// package's purpose; the simulated stack below it never sees these values.

package main

import (
	"runtime"
	"syscall"
	"time"
)

// procStart approximates process start: package initialisation runs before
// main, after the Go runtime is up.
var procStart = time.Now()

// hostNs reads the monotonic clock as nanoseconds since process start.
func hostNs() int64 { return int64(time.Since(procStart)) }

// cpuNs reports the process's user+system CPU time so far. It includes the
// garbage collector's work on the other core and is insensitive to the
// process being preempted.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapCounters is the allocation side of a measured window.
type heapCounters struct {
	mallocs    uint64
	allocBytes uint64
}

func readHeap() heapCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCounters{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
}

// liveHeapMiB forces a collection and reports what survives it.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
