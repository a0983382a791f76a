package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bcwan/internal/telemetry"
)

// window measures one timed stretch of a workload: wall time, process
// CPU time (getrusage user+sys) and the runtime's allocation and GC CPU
// counters.
type window struct {
	start time.Time
	cpu   time.Duration
	rt    [3]metrics.Sample
}

// windowStats is what a closed window measured.
type windowStats struct {
	Wall, CPU  time.Duration
	AllocBytes float64
	// GCShare is the runtime's estimate of GC CPU over all CPU time the
	// Go runtime accounted in the window.
	GCShare float64
}

var runtimeSamples = [3]string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() [3]metrics.Sample {
	var s [3]metrics.Sample
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return s
}

func openWindow() window {
	return window{start: time.Now(), cpu: processCPU(), rt: readRuntime()}
}

func (w window) close() windowStats {
	wall := time.Since(w.start)
	cpu := processCPU() - w.cpu
	rt := readRuntime()
	st := windowStats{
		Wall:       wall,
		CPU:        cpu,
		AllocBytes: float64(rt[0].Value.Uint64() - w.rt[0].Value.Uint64()),
	}
	if total := rt[2].Value.Float64() - w.rt[2].Value.Float64(); total > 0 {
		st.GCShare = (rt[1].Value.Float64() - w.rt[1].Value.Float64()) / total
	}
	return st
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS record (VmHWM) from the
// process's current resident size, so a later peakRSSMB reports the
// peak of what ran since. It reports whether the kernel took the reset;
// when it did not, peakRSSMB still reads the peak since process start.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's peak resident set size in MiB: VmHWM from
// /proc/self/status, which resetPeakRSS can lower, or else ru_maxrss
// (Linux reports both in KiB).
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// counters is a read-only view of telemetry registries: each series
// name maps to its value summed over label sets and registries
// (histograms contribute their sum).
type counters map[string]float64

func readCounters(regs ...*telemetry.Registry) counters {
	out := make(counters)
	for _, reg := range regs {
		for _, m := range reg.Snapshot() {
			out[m.Name] += m.Value
		}
	}
	return out
}

// delta returns after-before for one series.
func (c counters) delta(before counters, name string) float64 { return c[name] - before[name] }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
