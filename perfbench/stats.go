package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as Python's statistics.quantiles with the
// "inclusive" method). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// summary is one metric's samples within a run: the value reported (their
// median unless the caller pools them otherwise), and the spread, the
// interquartile distance over that value.
type summary struct {
	n      int
	value  float64
	spread float64
}

func summarize(xs []float64) summary { return summarizeAt(quantile(slices.Clone(xs), 0.5), xs) }

func summarizeAt(value float64, xs []float64) summary {
	c := slices.Clone(xs)
	s := summary{n: len(c), value: value}
	if len(c) > 1 && value != 0 {
		s.spread = (quantile(c, 0.75) - quantile(c, 0.25)) / math.Abs(value)
	}
	return s
}

// tailQuantile is the highest quantile at or below want that has at least
// ten samples beyond it, so a tail figure never rests on a handful of
// requests. It returns want unchanged when n is large enough.
func tailQuantile(n int, want float64) float64 {
	if n <= 0 {
		return want
	}
	if q := 1 - 10/float64(n); q < want {
		return math.Max(q, 0.5)
	}
	return want
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memSampler reads the runtime's mapped-and-in-use memory without stopping
// the world, so it can be polled while a run is being timed.
type memSampler struct {
	s [2]metrics.Sample
}

func newMemSampler() *memSampler {
	m := &memSampler{}
	m.s[0].Name = "/memory/classes/total:bytes"
	m.s[1].Name = "/memory/classes/heap/released:bytes"
	return m
}

// inUse returns the bytes the Go runtime has mapped minus those it has
// returned to the operating system.
func (m *memSampler) inUse() uint64 {
	metrics.Read(m.s[:])
	return m.s[0].Value.Uint64() - m.s[1].Value.Uint64()
}

// memDelta is the runtime.MemStats difference across a timed section.
type memDelta struct {
	allocs, bytes, gcs uint64
	pause              time.Duration
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{
		allocs: b.Mallocs - a.Mallocs,
		bytes:  b.TotalAlloc - a.TotalAlloc,
		gcs:    uint64(b.NumGC - a.NumGC),
		pause:  time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}
