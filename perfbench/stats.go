package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail figure may report, highest
// first. A percentile qualifies only when at least minBeyond samples lie
// beyond it, so the tail never rests on a handful of outliers. The
// ladder stops at p99 so a tail metric keeps one meaning from run to
// run: every workload's window yields well over 1000 samples.
var tailLadder = []float64{99, 98, 95, 90, 75, 50}

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-th percentile (0 < q ≤ 100) of
// sorted. It returns 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest rank of the q-th percentile of n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples strictly beyond its rank. Below 2·minBeyond
// samples nothing qualifies and the tail falls back to the median.
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if n-rank(n, q) >= minBeyond {
			return q
		}
	}
	return 50
}

// summary is a timing sample reduced to the figures the benchmark
// reports: the sample count, the median, the p95 the end-to-end gate
// uses, and the qualified tail.
type summary struct {
	N      int
	P50    float64
	P95    float64
	TailQ  float64
	Tail   float64
	Sorted []float64
}

func summarize(xs []float64) summary {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := summary{N: len(sorted), Sorted: sorted, TailQ: tailPercentile(len(sorted))}
	if s.N == 0 {
		return s
	}
	s.P50 = percentile(sorted, 50)
	s.P95 = percentile(sorted, 95)
	s.Tail = percentile(sorted, s.TailQ)
	return s
}

// median of an unsorted sample (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles ports Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, the rule the run-to-run agreement check
// is defined by. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", len(xs))
	}
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	const n = 4
	ld := len(data)
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], nil
}

// spread is the inter-quartile range of xs as a share of its median.
func spread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return math.Inf(1), nil
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// verdict is the agreement check of one metric on one workload across
// two sets of runs of the same code.
type verdict struct {
	Workload, Metric string
	Spread1, Spread2 float64
	Median1, Median2 float64
	// Drift is how much worse the second median is than the first, as
	// a share of the first (negative when it is better).
	Drift float64
	Bound float64
	OK    bool
	Why   string
}

// agree applies the run-to-run agreement rule to one metric: each set's
// spread must stay within the bound, and the second set's median may be
// worse than the first's by at most the bound.
func agree(m e2eMetric, workload string, set1, set2 []float64) verdict {
	v := verdict{Workload: workload, Metric: m.Name, Bound: m.Bound, OK: true}
	var err error
	if v.Spread1, err = spread(set1); err != nil {
		return verdict{Workload: workload, Metric: m.Name, Why: err.Error()}
	}
	if v.Spread2, err = spread(set2); err != nil {
		return verdict{Workload: workload, Metric: m.Name, Why: err.Error()}
	}
	v.Median1, v.Median2 = median(set1), median(set2)
	if v.Median1 != 0 {
		v.Drift = (v.Median2 - v.Median1) / math.Abs(v.Median1)
		if m.Better == "higher" {
			v.Drift = -v.Drift
		}
	}
	if v.Spread1 > m.Bound || v.Spread2 > m.Bound {
		v.OK = false
		v.Why = "spread above bound"
	}
	if v.Drift > m.Bound {
		v.OK = false
		v.Why = "second median worse by more than the bound"
	}
	return v
}

// selfTime is a span's duration minus the part of its interval covered
// by its children (overlapping children count once; parts of a child
// outside the parent are ignored).
func selfTime(parent span, children []span) int64 {
	type iv struct{ s, e int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var covered, curS, curE int64
	open := false
	for _, x := range ivs {
		switch {
		case !open:
			curS, curE, open = x.s, x.e, true
		case x.s <= curE:
			curE = max(curE, x.e)
		default:
			covered += curE - curS
			curS, curE = x.s, x.e
		}
	}
	if open {
		covered += curE - curS
	}
	return parent.End - parent.Start - covered
}

// sliceRates is the throughput of each whole slice of a window: the
// number of completions (given as offsets from the window start) in
// [i·slice, (i+1)·slice) per second, for every slice that ends within
// the window.
func sliceRates(offsets []time.Duration, window, slice time.Duration) []float64 {
	n := int(window / slice)
	counts := make([]float64, n)
	for _, off := range offsets {
		if i := int(off / slice); off >= 0 && i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= slice.Seconds()
	}
	return counts
}
