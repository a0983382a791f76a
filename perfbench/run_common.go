package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// A run sets its workload up at least minSetupRounds times and until
// setupBudget is spent; setup_s is the median. Short set-ups (a
// federation comes up in about 20 ms) vary by half from one round to the
// next, so they take many rounds to pin a run's median down; a long one
// (history generation, about 0.2 s) gets about ten.
const (
	minSetupRounds = 7
	setupBudget    = 2 * time.Second
)

// timedSetups runs setup for minSetupRounds rounds and setupBudget,
// each round from a freshly collected heap, releases every result but
// the last, and returns the last with the median set-up time and the
// round count. It then hands the released set-ups' memory back and
// restarts the peak-RSS record, so the peak a workload reports later is
// that of its own work and not of set-up churn; the returned note says
// where that peak is counted from.
func timedSetups[T any](setup func() (T, error), release func(T)) (T, float64, int, string, error) {
	var last T
	var times []float64
	for begin := time.Now(); len(times) < minSetupRounds || time.Since(begin) < setupBudget; {
		if len(times) > 0 {
			release(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, 0, "", fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	debug.FreeOSMemory()
	from := "peak since the last set-up"
	if !resetPeakRSS() {
		from = "peak since process start (the kernel refused a peak reset)"
	}
	return last, median(times), len(times), from, nil
}

// sensorCount is the closed loop's concurrency: two sensors, never more
// than the machine has cores.
func sensorCount() int { return min(2, runtime.NumCPU()) }

// profiled runs fn under the CPU profiler and returns the gzip'd
// profile.
func profiled(fn func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// addCPUShares records the profile's per-module CPU shares as cpu.*
// metrics.
func addCPUShares(m map[string]float64, prof []byte) error {
	shares, err := cpuShares(prof)
	if err != nil {
		return err
	}
	for c, v := range shares {
		m["cpu."+c] = v
	}
	return nil
}

// tailName names a tail figure by the percentile the sample size allows.
func tailName(prefix string, s summary) string {
	return fmt.Sprintf("%s_p%g_ms", prefix, s.TailQ)
}

// sampleNote states a timing's sample count and how many samples lie
// beyond its tail percentile.
func sampleNote(s summary) string {
	return fmt.Sprintf("n=%d, %d beyond p%g", s.N, s.N-rank(s.N, s.TailQ), s.TailQ)
}

// timing reports a latency sample on the report lines under the
// workload's own name: median, p95 and the qualified tail.
func (o *outcome) timing(noun, note string, s summary) {
	o.line(noun+"_p50_ms", s.P50, "ms", note+sampleNote(s))
	if s.TailQ != 95 {
		o.line(noun+"_p95_ms", s.P95, "ms", note)
	}
	o.line(tailName(noun, s), s.Tail, "ms", note+sampleNote(s))
}

// endToEnd is the metric set of an untraced run.
func endToEnd(setupS float64, lat summary, perWall, perCPU, rss float64) map[string]float64 {
	return map[string]float64{
		"setup_s":        setupS,
		"latency_p50_ms": lat.P50,
		"latency_p95_ms": lat.P95,
		"ops_per_s":      perWall,
		"ops_per_cpu_s":  perCPU,
		"peak_rss_mb":    rss,
	}
}

// addLatencyLayer records, in a traced run, the untraced window's
// sample count and qualified tail (p99 whenever there are 1000 samples).
func addLatencyLayer(m map[string]float64, lat summary) {
	m["latency.samples"] = float64(lat.N)
	m["latency.tail_ms"] = lat.Tail
	m["latency.tail_pct"] = lat.TailQ
}
