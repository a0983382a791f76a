package main

import (
	"fmt"
	mrand "math/rand"
	"time"
)

// warmupExchanges is how many exchanges each sensor runs, checked but
// unreported, before the measured window: enough for the heap and the
// daemons' caches to reach their working size. A fixed amount of work,
// so the peak RSS read after it does not depend on the host's speed.
const warmupExchanges = 100

// claimPollMS is the gateway daemon's sleep between claim attempts
// while it waits for the recipient's payment to reach it by gossip: an
// on-chain delivery that takes at least this long slept at least once.
const claimPollMS = 20

// exchangeRun is one measured window of the closed loop.
type exchangeRun struct {
	recs            []*exchangeRecord
	st              windowStats
	start           time.Time
	window          time.Duration
	fromHeight      int64
	toHeight        int64
	c0, c1          counters
	sync0, sync1    float64
	settled         int
	ackBeforeRecord int
	retries         int
	payerUpdates    float64
}

// measure runs the closed loop for d, or for quota exchanges per sensor
// when quota is positive.
func (f *federation) measure(d time.Duration, quota int, tr *tracer) *exchangeRun {
	r := &exchangeRun{fromHeight: f.master.Chain().Height(), c0: f.counters(), sync0: f.fsyncs()}
	updates0 := readCounters(f.rcptNode.Telemetry())
	w := openWindow()
	r.start, r.window = w.start, d
	r.recs = f.runLoad(w.start.Add(d), quota, tr)
	r.st = w.close()
	r.payerUpdates = readCounters(f.rcptNode.Telemetry()).delta(updates0, "bcwan_daemon_channel_updates_total")
	r.c1, r.sync1 = f.counters(), f.fsyncs()
	r.toHeight = f.master.Chain().Height()
	for _, rec := range r.recs {
		r.retries += rec.retries
		if rec.err == nil {
			r.settled++
		}
		if rec.ackBeforeRecord {
			r.ackBeforeRecord++
		}
	}
	return r
}

func (r *exchangeRun) latencies() summary {
	var xs []float64
	for _, rec := range r.recs {
		if rec.err == nil {
			xs = append(xs, rec.latencyMS())
		}
	}
	return summarize(xs)
}

// perSecond is the median over the window's one-second slices of
// settled exchanges per second (the whole window's mean when it is
// shorter than a slice).
func (r *exchangeRun) perSecond() (rate float64, slices int) {
	var offs []time.Duration
	for _, rec := range r.recs {
		if rec.err == nil {
			offs = append(offs, rec.recv.Sub(r.start))
		}
	}
	rates := sliceRates(offs, r.window, time.Second)
	if len(rates) == 0 {
		return ratio(float64(r.settled), r.st.Wall.Seconds()), 1
	}
	return median(rates), len(rates)
}

// delta is a telemetry series' growth over the window.
func (r *exchangeRun) delta(name string) float64 { return r.c1.delta(r.c0, name) }

// runExchange is the onchain or channel workload: set the federation up
// repeatedly (see timedSetups), then run the closed loop for the window
// untraced (end-to-end metrics); a traced run adds a second, traced
// window under the CPU profiler (per-layer metrics) and reports the
// throughput lost to tracing.
func runExchange(cfg runConfig, channels bool) (*outcome, error) {
	rng := mrand.New(mrand.NewSource(cfg.seed))
	f, setupS, setupN, rssFrom, err := timedSetups(
		func() (*federation, error) { return newFederation(cfg.workDir, rng, channels, sensorCount()) },
		func(f *federation) { f.close() })
	if err != nil {
		return nil, err
	}
	defer f.close()

	out := &outcome{metrics: make(map[string]float64)}
	warm := f.measure(time.Minute, warmupExchanges, newTracer(false))
	rss := peakRSSMB()
	untraced := f.measure(cfg.window, 0, newTracer(false))
	runs := []*exchangeRun{warm, untraced}
	var traced *exchangeRun
	tr := newTracer(cfg.trace)
	if cfg.trace {
		out.cpuProfile, err = profiled(func() { traced = f.measure(cfg.window, 0, tr) })
		if err != nil {
			return nil, err
		}
		runs = append(runs, traced)
	}

	// Output checks over every window.
	settled, skewExposed := f.warmups, 0
	heights := make(map[*exchangeRecord]int64)
	for _, r := range runs {
		for _, rec := range r.recs {
			out.attempted++
			if rec.err != nil {
				out.failed++
				out.problem("sensor %d: %v", rec.sensor, rec.err)
			}
		}
		settled += r.settled
		if !channels {
			problems, hs, exposed := f.checkOnChain(r.recs, r.fromHeight, r.toHeight)
			out.problems = append(out.problems, problems...)
			skewExposed += exposed
			for rec, h := range hs {
				heights[rec] = h
			}
		}
	}
	if channels {
		out.problems = append(out.problems, f.checkChannel(settled)...)
	}
	f.mu.Lock()
	strays, duplicates := f.strays, f.duplicates
	f.mu.Unlock()
	if strays > 0 {
		out.problem("%d readings reached the recipient that matched no exchange's reading", strays)
	}

	lat := untraced.latencies()
	rate, slices := untraced.perSecond()
	perCPU := ratio(float64(untraced.settled), untraced.st.CPU.Seconds())
	out.line("setup_s", setupS, "s", fmt.Sprintf("median of %d federation bring-ups", setupN))
	out.timing("exchange", "", lat)
	out.line("exchanges_per_s", rate, "1/s", fmt.Sprintf("median of %d one-second slices", slices))
	out.line("exchanges_per_cpu_s", perCPU, "1/cpu-s", "")
	out.line("peak_rss_mb", rss, "MiB", fmt.Sprintf("%s, read after %d warm-up exchanges; %.1f at the end", rssFrom, warm.settled, peakRSSMB()))
	out.line("failed_share", ratio(float64(out.failed), float64(out.attempted)), "share",
		"failed/attempted over every window")

	if !cfg.trace {
		out.metrics = endToEnd(setupS, lat, rate, perCPU, rss)
		return out, nil
	}

	// Waits measured across goroutines become spans after the window.
	for _, rec := range traced.recs {
		if rec.err != nil {
			continue
		}
		if channels {
			tr.add("settle.wait", rec.root, rec.sensor, rec.delivered, rec.recv)
			continue
		}
		mr, ok := f.miner.record(heights[rec])
		if !ok {
			continue
		}
		tr.add("chain.block_wait", rec.root, rec.sensor, rec.delivered, mr.start)
		tr.add("chain.mine", rec.root, rec.sensor, mr.start, mr.end)
		tr.add("settle.wait", rec.root, rec.sensor, mr.end, rec.recv)
	}
	out.spans = tr.snapshot()
	n := float64(traced.settled)
	p50 := func(name string) float64 { return summarize(durations(out.spans, name)).P50 }
	deliver := summarize(durations(out.spans, "daemon.deliver"))
	hits, misses := traced.delta("bcwan_chain_sigcache_hits_total"), traced.delta("bcwan_chain_sigcache_misses_total")
	var txs float64
	ch := f.master.Chain()
	for h := traced.fromHeight + 1; h <= traced.toHeight; h++ {
		if b, ok := ch.BlockAt(h); ok {
			txs += float64(len(b.Txs) - 1)
		}
	}
	m := out.metrics
	m["gateway.key_request_ms"] = p50("gateway.key_request")
	m["device.data_frame_ms"] = p50("device.data_frame")
	m["daemon.deliver_p50_ms"] = deliver.P50
	m["daemon.deliver_p99_ms"] = deliver.Tail
	if !channels {
		var polled float64
		for _, d := range deliver.Sorted {
			if d >= claimPollMS {
				polled++
			}
		}
		m["daemon.claim_poll_share"] = ratio(polled, float64(deliver.N))
	}
	m["chain.block_wait_ms"] = p50("chain.block_wait")
	m["chain.mine_ms"] = p50("chain.mine")
	m["settle.wait_ms"] = p50("settle.wait")
	m["exchange.self_ms"] = summarize(selfTimes(out.spans, "exchange")).P50
	m["fairex.refund_skew_exposed"] = float64(skewExposed)
	m["recipient.duplicate_readings"] = float64(duplicates)
	m["daemon.delivery_retries"] = float64(warm.retries + untraced.retries + traced.retries)
	m["daemon.ack_before_record"] = float64(warm.ackBeforeRecord + untraced.ackBeforeRecord + traced.ackBeforeRecord)
	m["chain.connect_busy_ms"] = ratio(traced.delta("bcwan_chain_block_connect_seconds")*1000, n)
	m["chain.accept_busy_ms"] = ratio(traced.delta("bcwan_mempool_accept_seconds")*1000, n)
	m["chain.assembly_busy_ms"] = ratio(traced.delta("bcwan_miner_assembly_seconds")*1000, n)
	m["chain.sigcache_hit_rate"] = ratio(hits, hits+misses)
	m["chain.blocks_per_exchange"] = ratio(traced.delta("bcwan_miner_blocks_mined_total"), n)
	m["chain.txs_per_exchange"] = ratio(txs, n)
	m["p2p.bytes_per_exchange"] = ratio(traced.delta("bcwan_p2p_bytes_out_total"), n)
	m["p2p.messages_per_exchange"] = ratio(traced.delta("bcwan_p2p_messages_out_total"), n)
	m["daemon.store_append_busy_ms"] = ratio(traced.delta("bcwan_daemon_store_append_seconds")*1000, n)
	m["daemon.fsyncs_per_exchange"] = ratio(traced.sync1-traced.sync0, n)
	// The payer counts each settled update; read the recipient's side.
	m["channel.updates_per_exchange"] = ratio(traced.payerUpdates, n)
	m["gateway.exchanges_failed"] = traced.delta("bcwan_gateway_exchanges_failed_total")
	m["runtime.alloc_kb_per_op"] = ratio(traced.st.AllocBytes/1024, n)
	m["runtime.gc_cpu_share"] = traced.st.GCShare
	tracedRate, _ := traced.perSecond()
	m["trace.overhead_share"] = 1 - ratio(tracedRate, rate)
	m["failed_share"] = ratio(float64(out.failed), float64(out.attempted))
	addLatencyLayer(m, lat)
	if err := addCPUShares(m, out.cpuProfile); err != nil {
		return nil, err
	}
	for _, name := range sortedKeys(m) {
		out.line(name, m[name], "", "traced window")
	}
	return out, nil
}
