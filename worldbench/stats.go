package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile for it to be
// reported: a tail figure resting on fewer is one or two outliers.
const minBeyond = 10

// tailPercentiles are the percentiles a timing may report as its tail,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// samples is a series of one timing, kept in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile (q in [0, 1]); NaN when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	return sorted[max(rank(q, len(s)), 1)-1]
}

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// epsilon keeps q·n that should be whole (0.999 × 10,000) from rounding up.
func rank(q float64, n int) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

// beyond is how many of n samples lie above the p-th percentile.
func beyond(p float64, n int) int { return n - rank(p/100, n) }

func (s samples) median() float64 { return s.quantile(0.5) }

// tailPercentile returns the highest percentile in tailPercentiles that
// leaves at least minBeyond of n samples above it, and false when even the
// median does not.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if beyond(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the p-th percentile of s, refusing it when fewer than
// minBeyond samples lie above it: p99 needs at least 1,000 samples.
func (s samples) percentile(p float64) (float64, error) {
	if beyond(p, len(s)) < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples, have %d",
			p, int(math.Ceil(minBeyond*100/(100-p))), len(s))
	}
	return s.quantile(p / 100), nil
}

// describe renders a timing as its median and its highest reportable
// tail percentile, with the sample count.
func (s samples) describe() string {
	if len(s) == 0 {
		return "no samples"
	}
	p, ok := tailPercentile(len(s))
	if !ok || p == 50 {
		return fmt.Sprintf("p50 %.3f ms (n=%d)", s.median(), len(s))
	}
	return fmt.Sprintf("p50 %.3f ms, p%g %.3f ms (n=%d)", s.median(), p, s.quantile(p/100), len(s))
}
