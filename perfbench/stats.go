package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile for it to be reported at all: a p99 over 200 samples is
// the second-largest value, not a tail estimate.
const minBeyond = 10

// samples is an append-only latency record in microseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e3) }

// quantile returns the nearest-rank q-quantile of xs (sorted in place)
// and an error when fewer than minBeyond samples lie above its rank.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("quantile p%g of an empty sample", q*100)
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, want at least %d",
			q*100, n, beyond, minBeyond)
	}
	return xs[rank-1], nil
}

// mustQuantile is quantile for the benchmark's own gated percentiles:
// a run too short to support one is a benchmark defect, reported as an
// error rather than as a number.
func mustQuantile(xs []float64, q float64, what string) (float64, error) {
	v, err := quantile(xs, q)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	return v, nil
}

// softQuantile is quantile for per-layer figures, which have no bound:
// an unsupported percentile reads 0 and the sample count says why.
func softQuantile(xs []float64, q float64) float64 {
	v, err := quantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

// highestQuantile returns the highest nearest-rank quantile of xs
// (sorted in place) that has minBeyond samples above it, and its value;
// ok is false when xs is too small for any.
func highestQuantile(xs []float64) (q, v float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	sort.Float64s(xs)
	rank := n - minBeyond
	return float64(rank) / float64(n), xs[rank-1], true
}

// window is one stretch of a measured run: the primary operation's
// latencies (µs) and how many operations completed in how long.
type window struct {
	lat []float64
	ops int
	dur time.Duration
}

// windowStats returns each window's rate and p50 latency, in window
// order. A run reports the medians over windows: they keep a burst of
// interference from the machine's other tenants, which lasts a second
// or two, from moving a run's figures.
func windowStats(ws []window) (rates, p50s []float64, err error) {
	if len(ws) == 0 {
		return nil, nil, fmt.Errorf("no measured window")
	}
	for i, w := range ws {
		p, err := mustQuantile(w.lat, 0.5, fmt.Sprintf("window %d p50", i))
		if err != nil {
			return nil, nil, err
		}
		rates = append(rates, float64(w.ops)/w.dur.Seconds())
		p50s = append(p50s, p)
	}
	return rates, p50s, nil
}

// median of xs (sorted in place); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
