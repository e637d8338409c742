package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks (the numpy/statistics.quantiles
// "inclusive" rule): rank = p/100·(n−1). It returns NaN on no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns v sorted ascending, leaving v untouched.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the 50th percentile of v (NaN when empty).
func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// sum adds up v.
func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// dueTime is the open-loop schedule: operation i of a generator running
// at rate per second is due i/rate seconds after start, however late
// earlier operations finished. Latency is measured from this instant, so
// a stalled operation charges every later one it delayed (no coordinated
// omission).
func dueTime(i int, rate float64) float64 { return float64(i) / rate }

// openLoopLatency accounts for an operation due at due, whose generator
// finished the previous operation at prevDone, started this one at started
// and saw it finish at done (all in seconds from the generator's start).
// latency is done − due: everything that kept the caller waiting, whether
// the previous operation was still running, the generator could not get a
// core to start on, or the operation itself took long. late is the part of
// it spent between the instant the operation could have started,
// max(due, prevDone), and the instant it did: how late the generator ran.
// It is reported beside the latency, never subtracted from it: on a busy
// box that wait is the contention the workload is there to show.
func openLoopLatency(due, prevDone, started, done float64) (latency, late float64) {
	ready := due
	if prevDone > ready {
		ready = prevDone
	}
	if late = started - ready; late < 0 {
		late = 0
	}
	return done - due, late
}
