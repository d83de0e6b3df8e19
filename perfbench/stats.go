package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// median returns the median of xs (the mean of the middle pair for even
// lengths), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ms and us convert a duration to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// memStats is the allocation and GC-pause state at one instant.
type memStats struct {
	mallocs, pauseNs uint64
}

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{mallocs: m.Mallocs, pauseNs: m.PauseTotalNs}
}

// liveHeapMB forces two collections and returns the heap still in use, in
// MB: what the workload's plans, keys and buffers hold.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// setupRepeats is how many times an untraced run repeats its set-up;
// setup_s is their median.
const setupRepeats = 15

// setupReps is the set-up repetitions of a run: setupRepeats, or one in
// the traced run, which reports no set-up time.
func setupReps(o options) int {
	if o.trace {
		return 1
	}
	return setupRepeats
}

// timeSetups runs build n times, each after dropping the process-wide plan
// caches so every repetition pays the cold cost, and returns the last
// result with every repetition's process CPU time in seconds. Earlier
// results are closed once the next repetition is built.
func timeSetups[T any](n int, build func() (T, error), closeFn func(T)) (T, []float64, error) {
	var last T
	var secs []float64
	for i := range n {
		resetPlanCaches()
		runtime.GC() // start each repetition from the same collected heap
		start := processCPU()
		v, err := build()
		d := processCPU() - start
		if err != nil {
			return last, nil, err
		}
		secs = append(secs, d.Seconds())
		if i > 0 && closeFn != nil {
			closeFn(last)
		}
		last = v
	}
	return last, secs, nil
}
