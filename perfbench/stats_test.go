package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5000, 99}, // p99.9 is past the ladder's top
		{1000, 99}, // rank 990: exactly 10 beyond
		{999, 98},  // p99 would leave 9 beyond
		{500, 98},  // rank 490: 10 beyond
		{499, 95},  // p98 would leave 9
		{200, 95},  // rank 190: 10 beyond
		{100, 90},  // rank 90: 10 beyond
		{40, 75},   // rank 30: 10 beyond
		{20, 50},   // rank 10: 10 beyond
		{19, 50},   // nothing qualifies: fall back to the median
		{0, 50},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if tc.n >= 2*minBeyond {
			if beyond := tc.n - rank(tc.n, got); beyond < minBeyond {
				t.Errorf("n=%d: p%g leaves %d samples beyond, want ≥ %d", tc.n, got, beyond, minBeyond)
			}
		}
	}
}

func TestSummarizeReportsQualifiedTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, unsorted
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.TailQ != 99 || s.Tail != 990 {
		t.Fatalf("summary = n %d p50 %g p%g %g, want n 1000 p50 500 p99 990", s.N, s.P50, s.TailQ, s.Tail)
	}
	if empty := summarize(nil); empty.N != 0 || empty.P50 != 0 || empty.Tail != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 1.2, 9.9, 4.4, 5.0}, 2.15, 4.4, 7.45},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 30}, 11.75, 14.5, 17.25},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil || !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %g %g %g (%v), want %g %g %g", tc.xs, q1, q2, q3, err, tc.q1, tc.q2, tc.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
}

func TestAgreementCheck(t *testing.T) {
	lower := e2eMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := e2eMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	setup := e2eMetric{Name: "setup_s", Better: "lower", Bound: 0.1}
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.01, 9.99, 10}
	shifted := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}

	if v := agree(lower, "w", steady, steady); !v.OK || v.Drift != 0 {
		t.Errorf("identical steady sets: %+v", v)
	}
	if v := agree(lower, "w", steady, shifted(steady, 1.05)); !v.OK || !near(v.Drift, 0.05) {
		t.Errorf("5%% slower within a 10%% bound should pass: %+v", v)
	}
	if v := agree(lower, "w", steady, shifted(steady, 1.2)); v.OK {
		t.Errorf("20%% slower beyond a 10%% bound should fail: %+v", v)
	}
	if v := agree(lower, "w", steady, shifted(steady, 0.8)); !v.OK || v.Drift >= 0 {
		t.Errorf("a faster second set is not a regression: %+v", v)
	}
	if v := agree(higher, "w", steady, shifted(steady, 0.8)); v.OK {
		t.Errorf("20%% less throughput should fail: %+v", v)
	}
	if v := agree(higher, "w", steady, shifted(steady, 1.2)); !v.OK {
		t.Errorf("more throughput is not a regression: %+v", v)
	}
	if v := agree(lower, "w", noisy, steady); v.OK || v.Why != "spread above bound" {
		t.Errorf("a set whose spread exceeds the bound should fail: %+v", v)
	}
	if v := agree(setup, "w", noisy, steady); v.OK || v.Why != "spread above bound" {
		t.Errorf("setup_s spread is checked like any other metric: %+v", v)
	}
	if v := agree(lower, "w", []float64{1}, steady); v.OK {
		t.Errorf("one run cannot show a spread: %+v", v)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	parent := span{ID: 0, Parent: -1, Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint children", []span{{Start: 110, End: 130}, {Start: 150, End: 160}}, 70},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 140, End: 170}}, 40},
		{"nested child inside another", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"child outside the parent is clipped", []span{{Start: 50, End: 120}, {Start: 190, End: 260}}, 70},
		{"child covering everything", []span{{Start: 0, End: 300}}, 0},
		{"empty child", []span{{Start: 150, End: 150}}, 100},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTracerSelfTimesFromRecordedSpans(t *testing.T) {
	tr := newTracer(true)
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("exchange", -1, 0, at(0), at(10))
	tr.add("gateway.key_request", root, 0, at(0), at(4))
	tr.add("daemon.deliver", root, 0, at(5), at(9))
	other := tr.add("exchange", -1, 1, at(0), at(6))
	tr.add("gateway.key_request", other, 1, at(1), at(6))
	spans := tr.snapshot()
	got := selfTimes(spans, "exchange")
	if len(got) != 2 || !near(got[0], 2) || !near(got[1], 1) {
		t.Fatalf("self times %v ms, want [2 1]", got)
	}
	if d := durations(spans, "gateway.key_request"); len(d) != 2 || !near(d[0], 4) || !near(d[1], 5) {
		t.Fatalf("durations %v ms, want [4 5]", d)
	}
	off := newTracer(false)
	if id := off.begin("x", -1, 0); id != -1 {
		t.Fatalf("disabled tracer returned span id %d", id)
	}
	off.end(-1)
	if len(off.snapshot()) != 0 {
		t.Fatal("disabled tracer recorded spans")
	}
}

func TestCPUCategory(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math/big.addMulVVW", "crypto/rand.Prime", "bcwan/internal/bccrypto.GenerateRSA512", "bcwan/internal/gateway.(*Gateway).HandleKeyRequest"}, "bccrypto"},
		{[]string{"reflect.Value.Field", "encoding/json.(*encodeState).marshal", "bcwan/internal/daemon.sendDelivery"}, "json"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "bcwan/internal/chain.(*Chain).AddBlock"}, "gc"},
		{[]string{"runtime.mallocgc", "bcwan/internal/lora.(*Channel).deliver"}, "lora"},
		{[]string{"bcwan/internal/simtime.(*Scheduler).Run.func1"}, "simtime"},
		{[]string{"bcwan/internal/wallet.(*Wallet).buildSpend"}, "other"},
		{[]string{"syscall.Syscall", "os.(*File).Sync"}, "other"},
	} {
		if got := cpuCategory(tc.stack); got != tc.want {
			t.Errorf("cpuCategory(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestCPUSharesDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range cpuCategories {
		v, ok := shares[c]
		if !ok {
			t.Errorf("category %s missing", c)
		}
		sum += v
	}
	if !near(sum, 1) {
		t.Fatalf("shares sum to %g, want 1: %v", sum, shares)
	}
	if shares["other"] < 0.5 {
		t.Fatalf("a profile of a spin loop in package main should be mostly other: %v", shares)
	}
}

func TestBenchmarkSpecMatchesMetrics(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	wantWorkloads := map[string]bool{"onchain": true, "channel": true, "city": true, "catchup": true}
	for _, w := range spec.Workloads {
		if !wantWorkloads[w.Name] {
			t.Errorf("BENCHMARK.json names workload %s the program does not run", w.Name)
		}
		delete(wantWorkloads, w.Name)
	}
	for w := range wantWorkloads {
		t.Errorf("workload %s missing from BENCHMARK.json", w)
	}
	seen := make(map[string]bool)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v: bound must be in (0, 0.25] and better lower or higher", m)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing from the end-to-end metrics")
	}
	for _, c := range cpuCategories {
		found := false
		for _, m := range spec.PerLayer {
			found = found || m.Name == "cpu."+c
		}
		if !found {
			t.Errorf("per-layer metric cpu.%s missing from BENCHMARK.json", c)
		}
	}
}

func TestSliceRatesCountWholeSlicesOnly(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	offs := []time.Duration{ms(-5), ms(0), ms(400), ms(999), ms(1000), ms(1500), ms(2100), ms(2600)}
	got := sliceRates(offs, ms(2500), 500*time.Millisecond)
	want := []float64{4, 2, 2, 2, 2} // per second: counts 2,1,1,1,1 over half-second slices; 2600 ms is past the window
	if len(got) != len(want) {
		t.Fatalf("sliceRates = %v, want %v", got, want)
	}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Fatalf("sliceRates = %v, want %v", got, want)
		}
	}
}
