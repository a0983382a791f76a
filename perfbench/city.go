package main

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"time"

	"bcwan/internal/experiments"
)

// cityTier is the headline tier of the city campaign.
var cityTier = experiments.CityTier{Devices: 10_000, Gateways: 100}

// cityMinSuccess is the delivered/sent share below which a city run
// fails its output check.
const cityMinSuccess = 0.9

// cityConfig is DefaultCityConfig's shape at the 10k-device/100-gateway
// tier with the run's seed.
func cityConfig(seed int64) experiments.CityConfig {
	cfg := experiments.DefaultCityConfig()
	cfg.Seed = seed
	cfg.Tiers = []experiments.CityTier{cityTier}
	return cfg
}

// cityCounters is the part of a city result that must repeat exactly
// for one seed.
type cityCounters struct {
	FramesSent, FramesDelivered, Duplicates, OutageDrops uint64
	SettleTxs, Blocks, PayoutOutputs                     int
	CreditsPaid                                          uint64
	GatewayOutages, DeviceMoves                          int
	Latency                                              experiments.LatencyStats
}

func countersOf(r *experiments.CityTierResult) cityCounters {
	return cityCounters{
		r.FramesSent, r.FramesDelivered, r.Duplicates, r.OutageDrops,
		r.SettleTxs, r.Blocks, r.PayoutOutputs, r.CreditsPaid,
		r.GatewayOutages, r.DeviceMoves, r.Latency,
	}
}

// cityRun is one full RunCityBench with the window it ran in.
type cityRun struct {
	res *experiments.CityTierResult
	st  windowStats
}

func runCityOnce(cfg experiments.CityConfig, tr *tracer) (*cityRun, error) {
	// Each run starts from an empty heap, so peak RSS is one run's peak
	// and not whichever two runs' garbage happened to overlap.
	debug.FreeOSMemory()
	sp := tr.begin("city.run", -1, 0)
	w := openWindow()
	results, err := experiments.RunCityBench(cfg)
	st := w.close()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if len(results) != 1 {
		return nil, fmt.Errorf("city bench returned %d tiers, want 1", len(results))
	}
	return &cityRun{res: results[0], st: st}, nil
}

// runCity is the city workload: RunCityBench at the 10k/100 tier, once
// to warm up and then back to back until the window is spent; every run
// of one seed must repeat the warm-up run's frame counters. Set-up is
// the same tier simulated for one virtual second, which is almost all
// world construction. A traced run adds one traced, profiled city run.
func runCity(cfg runConfig) (*outcome, error) {
	setupCfg := cityConfig(cfg.seed)
	setupCfg.SimDuration = time.Second
	_, setupS, setupN, rssFrom, err := timedSetups(
		func() (struct{}, error) { _, err := experiments.RunCityBench(setupCfg); return struct{}{}, err },
		func(struct{}) {})
	if err != nil {
		return nil, err
	}

	full := cityConfig(cfg.seed)
	off := newTracer(false)
	// The first run warms the heap up and is the reference the measured
	// runs' counters must repeat.
	ref, err := runCityOnce(full, off)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	var runs []*cityRun
	for start := time.Now(); len(runs) == 0 || time.Since(start) < cfg.window; {
		r, err := runCityOnce(full, off)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	// Frames per wall-second is the median over runs; per CPU-second the
	// whole window's ratio.
	var frames, cpu float64
	var rates []float64
	for _, r := range runs {
		frames += float64(r.res.FramesSent)
		cpu += r.st.CPU.Seconds()
		rates = append(rates, ratio(float64(r.res.FramesSent), r.st.Wall.Seconds()))
	}

	out := &outcome{metrics: make(map[string]float64)}
	var traced *cityRun
	if cfg.trace {
		tr := newTracer(true)
		var runErr error
		out.cpuProfile, err = profiled(func() { traced, runErr = runCityOnce(full, tr) })
		if err != nil {
			return nil, err
		}
		if runErr != nil {
			return nil, runErr
		}
		out.spans = tr.snapshot()
	}

	first := ref.res
	want := countersOf(first)
	all := append([]*cityRun{ref}, runs...)
	if traced != nil {
		all = append(all, traced)
	}
	for i, r := range all {
		out.attempted++
		ok := true
		if got := countersOf(r.res); !reflect.DeepEqual(got, want) {
			out.problem("city run %d: counters %+v differ from run 0 %+v for seed %d", i, got, want, cfg.seed)
			ok = false
		}
		if r.res.SuccessRate < cityMinSuccess {
			out.problem("city run %d: success %.4f below %.2f", i, r.res.SuccessRate, cityMinSuccess)
			ok = false
		}
		if !ok {
			out.failed++
		}
	}

	var lat []float64
	for _, d := range first.Latencies {
		lat = append(lat, float64(d)/1e6)
	}
	ls := summarize(lat)
	fps := median(rates)
	out.line("setup_s", setupS, "s", fmt.Sprintf("median of %d one-virtual-second builds of the tier", setupN))
	out.line("frames_per_s", fps, "1/s", fmt.Sprintf("median of %d runs, %d frames each", len(runs), first.FramesSent))
	out.line("frames_per_cpu_s", ratio(frames, cpu), "1/cpu-s", "")
	out.timing("frame", "simulated clock; ", ls)
	out.line("peak_rss_mb", rss, "MiB", fmt.Sprintf("%s, read after the warm-up run; %.1f at the end", rssFrom, peakRSSMB()))
	out.line("failed_share", ratio(float64(out.failed), float64(out.attempted)), "share", "failed/attempted city runs")

	if !cfg.trace {
		out.metrics = endToEnd(setupS, ls, fps, ratio(frames, cpu), rss)
		return out, nil
	}
	t := traced.res
	m := out.metrics
	m["lora.success_rate"] = t.SuccessRate
	m["lora.receptions_per_frame"] = ratio(float64(t.Channel.Deliveries), float64(t.Channel.Transmissions))
	m["lora.outage_drops"] = float64(t.OutageDrops)
	m["chain.settle_txs"] = float64(t.SettleTxs)
	m["chain.blocks"] = float64(t.Blocks)
	m["runtime.alloc_kb_per_op"] = ratio(traced.st.AllocBytes/1024, float64(t.FramesSent))
	m["runtime.gc_cpu_share"] = traced.st.GCShare
	m["trace.overhead_share"] = 1 - ratio(ratio(float64(t.FramesSent), traced.st.Wall.Seconds()), fps)
	m["failed_share"] = ratio(float64(out.failed), float64(out.attempted))
	addLatencyLayer(m, ls)
	if err := addCPUShares(m, out.cpuProfile); err != nil {
		return nil, err
	}
	for _, name := range sortedKeys(m) {
		out.line(name, m[name], "", "traced run")
	}
	return out, nil
}
