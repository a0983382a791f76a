package main

import (
	"bytes"
	"fmt"
	"math"
	mrand "math/rand"
	"os"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/daemon"
	"bcwan/internal/fairex"
	"bcwan/internal/script"
	"bcwan/internal/telemetry"
	"bcwan/internal/wallet"
)

// The catchup workload: a fresh node connects a seeded history of
// federation blocks through Chain.AddBlock with a cold signature cache
// and persists each block with Store.AppendBlock, as a gateway does when
// it joins the federation and replays history.
//
// The history holds the two kinds of block the repository's own traffic
// mines. An exchange block is what the onchain workload mines: one fair
// exchange, its payment plus the gateway's OP_CHECKRSA512PAIR claim (a
// traced onchain run mines 0.98 blocks and 2 transactions per exchange).
// A settlement block is what the city bench mines: one chained P2PKH
// payout from the recipient to the gateways it owes (the 10k-device /
// 100-gateway tier pays 1797 outputs over 25 settlements, 72 each, in
// results/BENCH_city.json). An exchange block holds well under the 24
// UTXO operations from which Chain.AddBlock connects in parallel, a
// settlement block well over, so one replay measures both connect paths
// cold.

const (
	// historyBlocks is the length of the generated history; a run
	// replays it into fresh nodes until the window is spent.
	historyBlocks = 120
	// settleEvery places one settlement block among every settleEvery
	// blocks, at a seeded position. The mix is a choice, not a
	// measurement: with settlement blocks a quarter of the history, the
	// median block and the p95 block each fall inside one kind.
	settleEvery = 4
	// settlePayouts and settleGateways are the city bench's 10k tier:
	// 72 payouts per settlement among 100 gateways.
	settlePayouts  = 72
	settleGateways = 100
	// historyParties is how many buyers and exchange gateways the
	// history cycles through; historyKeys how many ephemeral RSA keys
	// the exchanges reuse (a claim only has to disclose the key its
	// payment names, so reuse keeps generation cheap).
	historyParties = 8
	historyKeys    = 8
)

// history is a generated chain: its genesis, its blocks, and the tip
// and UTXO set a node must reach after connecting them. Blocks are kept
// serialized and every replay decodes its own copy, so a fresh node
// pays for transaction IDs and encodings as it would off the wire.
type history struct {
	params  chain.Params
	genesis *chain.Block
	miner   []byte
	raw     [][]byte  // serialized blocks
	settle  []bool    // whether block i is a settlement block
	ops     [2][2]int // min and max UTXO operations of exchange [0] and settlement [1] blocks
	tip     chain.Hash
	utxo    []byte // serialized final UTXO set
	claims  int
}

// generateHistory builds historyBlocks blocks from the seed. In an
// exchange block a buyer pays a gateway through a Listing 1 output
// locked to an ephemeral key and the gateway claims in the same block by
// disclosing the key; in a settlement block the recipient pays
// settlePayouts gateways from the change of its previous settlement.
func generateHistory(seed int64) (*history, error) {
	rng := mrand.New(mrand.NewSource(seed))
	newWallet := func() (*wallet.Wallet, error) {
		k, err := bccrypto.GenerateECKey(rng)
		if err != nil {
			return nil, err
		}
		return wallet.FromKey(k, rng), nil
	}
	minerKey, err := bccrypto.GenerateECKey(rng)
	if err != nil {
		return nil, err
	}
	payer, err := newWallet()
	if err != nil {
		return nil, err
	}
	alloc := map[[20]byte]uint64{payer.PubKeyHash(): 100_000_000}
	var buyers, gateways []*wallet.Wallet
	for i := 0; i < historyParties; i++ {
		b, err := newWallet()
		if err != nil {
			return nil, err
		}
		g, err := newWallet()
		if err != nil {
			return nil, err
		}
		buyers, gateways = append(buyers, b), append(gateways, g)
		alloc[b.PubKeyHash()] = 1_000_000
	}
	payouts := make([][]byte, settleGateways)
	for i := range payouts {
		var pkh [20]byte
		rng.Read(pkh[:])
		payouts[i] = script.PayToPubKeyHash(pkh)
	}
	keys := make([]*bccrypto.RSA512PrivateKey, historyKeys)
	for i := range keys {
		if keys[i], err = bccrypto.GenerateRSA512(rng); err != nil {
			return nil, err
		}
	}

	h := &history{params: chain.DefaultParams(), genesis: chain.GenesisBlock(alloc), miner: minerKey.PublicBytes()}
	gen, err := chain.New(h.params, h.genesis)
	if err != nil {
		return nil, err
	}
	gen.AuthorizeMiner(h.miner)
	pool := chain.NewMempool()
	pool.UseVerifier(gen.Verifier())
	ledger := &fairex.Node{Chain: gen, Pool: pool}
	miner := chain.NewMiner(minerKey, gen, pool, rng)
	view := gen.UTXO() // confirmed set plus this block's pooled txs
	submit := func(tx *chain.Tx, height int64) error {
		if err := ledger.Submit(tx); err != nil {
			return err
		}
		return view.ApplyTx(tx, height)
	}
	exchange := func(height int64) error {
		buyer := buyers[rng.Intn(len(buyers))]
		gw := gateways[rng.Intn(len(gateways))]
		key := keys[rng.Intn(len(keys))]
		params := script.KeyReleaseParams{
			RSAPubKey:         bccrypto.MarshalRSA512PublicKey(key.Public()),
			GatewayPubKeyHash: gw.PubKeyHash(),
			RefundHeight:      height + 100,
			BuyerPubKeyHash:   buyer.PubKeyHash(),
		}
		pay, err := buyer.BuildKeyReleasePayment(view, params, uint64(50+rng.Intn(100)), 1)
		if err != nil {
			return fmt.Errorf("history payment: %w", err)
		}
		if err := submit(pay, height); err != nil {
			return fmt.Errorf("history payment: %w", err)
		}
		claim, err := gw.BuildClaim(chain.OutPoint{TxID: pay.ID(), Index: 0}, pay.Outputs[0], key, 1)
		if err != nil {
			return fmt.Errorf("history claim: %w", err)
		}
		if err := submit(claim, height); err != nil {
			return fmt.Errorf("history claim: %w", err)
		}
		h.claims++
		return nil
	}
	// settlement is built the way the city bench's recipient builds its
	// batch payout: change first, then one output per gateway paid, no
	// fee, spending the previous settlement's change.
	settlement := func(height int64) error {
		coins := view.FindByPubKeyHash(payer.PubKeyHash())
		if len(coins) != 1 {
			return fmt.Errorf("settlement payer holds %d coins, want its one chained change", len(coins))
		}
		prev, _ := view.Get(coins[0])
		tx := &chain.Tx{Version: 1, Inputs: []chain.TxIn{{Prev: coins[0]}}, Outputs: []chain.TxOut{{Lock: prev.Out.Lock}}}
		var total uint64
		for _, i := range rng.Perm(settleGateways)[:settlePayouts] {
			v := uint64(1 + rng.Intn(2000))
			tx.Outputs = append(tx.Outputs, chain.TxOut{Value: v, Lock: payouts[i]})
			total += v
		}
		tx.Outputs[0].Value = prev.Out.Value - total
		if err := payer.SignP2PKHInputs(tx, view); err != nil {
			return err
		}
		if err := submit(tx, height); err != nil {
			return fmt.Errorf("history settlement: %w", err)
		}
		return nil
	}
	h.ops = [2][2]int{{math.MaxInt, 0}, {math.MaxInt, 0}}
	settleAt := 0
	for len(h.raw) < historyBlocks {
		height := gen.Height() + 1
		if len(h.raw)%settleEvery == 0 {
			settleAt = len(h.raw) + rng.Intn(settleEvery)
		}
		settle := len(h.raw) == settleAt
		wantTxs := 2
		if settle {
			wantTxs = 1
			err = settlement(height)
		} else {
			err = exchange(height)
		}
		if err != nil {
			return nil, err
		}
		b, err := miner.Mine(time.Now())
		if err != nil {
			return nil, err
		}
		if got := len(b.Txs) - 1; got != wantTxs {
			return nil, fmt.Errorf("history block %d holds %d txs, want %d", height, got, wantTxs)
		}
		if err := view.ApplyTx(b.Txs[0], height); err != nil {
			return nil, err
		}
		kind, ops := 0, utxoOps(b)
		if settle {
			kind = 1
		}
		h.ops[kind] = [2]int{min(h.ops[kind][0], ops), max(h.ops[kind][1], ops)}
		h.raw = append(h.raw, b.Serialize())
		h.settle = append(h.settle, settle)
	}
	h.tip = gen.Tip().ID()
	h.utxo = gen.UTXO().SerializeUTXO()
	return h, nil
}

// utxoOps counts the UTXO-set changes connecting b makes: one per spent
// input and one per spendable output, the count Chain.AddBlock compares
// with its parallel-connect threshold.
func utxoOps(b *chain.Block) int {
	n := 0
	for _, tx := range b.Txs {
		if !tx.IsCoinbase() {
			n += len(tx.Inputs)
		}
		for _, out := range tx.Outputs {
			if script.Classify(out.Lock) != script.ClassOpReturn {
				n++
			}
		}
	}
	return n
}

// catchupRound is one replay of the history into a fresh node.
type catchupRound struct {
	blockMS  []float64 // AddBlock + AppendBlock per block
	wall     time.Duration
	cpu      time.Duration
	records  float64
	fsyncs   float64
	counters counters
	problems []string
}

// replay decodes the history and connects it into a fresh chain and
// store, timing only the connect-and-persist loop.
func (h *history) replay(workDir string, tr *tracer) (*catchupRound, error) {
	blocks := make([]*chain.Block, len(h.raw))
	for i, raw := range h.raw {
		b, err := chain.DeserializeBlock(raw)
		if err != nil {
			return nil, fmt.Errorf("decode block %d: %w", i+1, err)
		}
		blocks[i] = b
	}
	c, err := chain.New(h.params, h.genesis)
	if err != nil {
		return nil, err
	}
	c.AuthorizeMiner(h.miner)
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	dir, err := os.MkdirTemp(workDir, "catchup-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := daemon.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	r := &catchupRound{blockMS: make([]float64, 0, len(blocks))}
	root := tr.begin("catchup.replay", -1, 0)
	cpu0, start := processCPU(), time.Now()
	for i, b := range blocks {
		t0 := time.Now()
		name := "chain.add_block.exchange"
		if h.settle[i] {
			name = "chain.add_block.settle"
		}
		sp := tr.begin(name, root, 0)
		err := c.AddBlock(b)
		tr.end(sp)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("connect block %d: %w", b.Header.Height, err)
		}
		sp = tr.begin("daemon.store_append", root, 0)
		err = st.AppendBlock(b)
		tr.end(sp)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("persist block %d: %w", b.Header.Height, err)
		}
		r.blockMS = append(r.blockMS, float64(time.Since(t0))/1e6)
	}
	r.wall, r.cpu = time.Since(start), processCPU()-cpu0
	tr.end(root)
	r.records, r.fsyncs = float64(st.LogRecords()), float64(st.Syncs())
	if err := st.Close(); err != nil {
		return nil, err
	}
	r.counters = readCounters(reg)
	if got := c.Tip().ID(); got != h.tip {
		r.problems = append(r.problems, fmt.Sprintf("tip %s after catch-up, generator's is %s", got, h.tip))
	}
	if !bytes.Equal(c.UTXO().SerializeUTXO(), h.utxo) {
		r.problems = append(r.problems, "UTXO set after catch-up differs from the generator's")
	}
	return r, nil
}

// runCatchup is the catchup workload: generate the history repeatedly
// (set-up, see timedSetups), then replay it into fresh nodes until the
// window is spent. A traced run adds traced, profiled replays for
// another window.
func runCatchup(cfg runConfig) (*outcome, error) {
	h, setupS, setupN, rssFrom, err := timedSetups(func() (*history, error) { return generateHistory(cfg.seed) }, func(*history) {})
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: make(map[string]float64)}
	replayFor := func(d time.Duration, tr *tracer) ([]*catchupRound, windowStats, error) {
		var rounds []*catchupRound
		w := openWindow()
		for start := time.Now(); len(rounds) == 0 || time.Since(start) < d; {
			r, err := h.replay(cfg.workDir, tr)
			if err != nil {
				return nil, windowStats{}, err
			}
			rounds = append(rounds, r)
		}
		return rounds, w.close(), nil
	}
	// One checked, unreported replay warms the heap and page cache up.
	warm, _, err := replayFor(0, newTracer(false))
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	rounds, _, err := replayFor(cfg.window, newTracer(false))
	if err != nil {
		return nil, err
	}
	var traced []*catchupRound
	var tracedSt windowStats
	tr := newTracer(cfg.trace)
	if cfg.trace {
		var runErr error
		out.cpuProfile, err = profiled(func() { traced, tracedSt, runErr = replayFor(cfg.window, tr) })
		if err != nil {
			return nil, err
		}
		if runErr != nil {
			return nil, runErr
		}
		out.spans = tr.snapshot()
	}
	for _, r := range append(append(warm, rounds...), traced...) {
		out.attempted += len(h.raw)
		if len(r.problems) > 0 {
			out.failed += len(h.raw)
			out.problems = append(out.problems, r.problems...)
		}
	}

	// Blocks per wall-second is the median over replays; per CPU-second
	// the whole window's ratio.
	rate := func(rs []*catchupRound) (perWall, perCPU float64, blocks []float64) {
		var n, cpu float64
		var rates []float64
		for _, r := range rs {
			n += float64(len(r.blockMS))
			cpu += r.cpu.Seconds()
			rates = append(rates, ratio(float64(len(r.blockMS)), r.wall.Seconds()))
			blocks = append(blocks, r.blockMS...)
		}
		return median(rates), ratio(n, cpu), blocks
	}
	bps, bpc, blockMS := rate(rounds)
	lat := summarize(blockMS)
	// The gated block latencies are medians over replays of each replay's
	// own p50 and p95, as blocks per second is a median over replays:
	// blocks take under a millisecond, so a scheduling hiccup of the
	// shared host lands in the pooled tail, and a run's pooled p95 moved
	// by half between runs of the same code while this one held.
	var p50s, p95s []float64
	for _, r := range rounds {
		s := summarize(r.blockMS)
		p50s, p95s = append(p50s, s.P50), append(p95s, s.P95)
	}
	gated := summary{P50: median(p50s), P95: median(p95s)}
	var kindMS [2][]float64
	for i, ms := range blockMS {
		if h.settle[i%len(h.raw)] {
			kindMS[1] = append(kindMS[1], ms)
		} else {
			kindMS[0] = append(kindMS[0], ms)
		}
	}
	note := fmt.Sprintf("median of %d replays of %d blocks (%d exchange, %d settlement)",
		len(rounds), len(h.raw), h.claims, len(h.raw)-h.claims)
	out.line("setup_s", setupS, "s", fmt.Sprintf("median of %d history generations", setupN))
	out.line("blocks_per_s", bps, "1/s", note)
	out.line("blocks_per_cpu_s", bpc, "1/cpu-s", "")
	out.timing("block", "AddBlock + AppendBlock, pooled over replays; ", lat)
	out.line("replay_block_p50_ms", gated.P50, "ms", fmt.Sprintf("median over %d replays of each replay's p50", len(rounds)))
	out.line("replay_block_p95_ms", gated.P95, "ms", fmt.Sprintf("median over %d replays of each replay's p95", len(rounds)))
	out.timing("exchange_block", fmt.Sprintf("%d-%d UTXO ops; ", h.ops[0][0], h.ops[0][1]), summarize(kindMS[0]))
	out.timing("settle_block", fmt.Sprintf("%d-%d UTXO ops; ", h.ops[1][0], h.ops[1][1]), summarize(kindMS[1]))
	out.line("peak_rss_mb", rss, "MiB", fmt.Sprintf("%s, read after the warm-up replay; %.1f at the end", rssFrom, peakRSSMB()))
	out.line("failed_share", ratio(float64(out.failed), float64(out.attempted)), "share", "failed/attempted blocks")
	if !cfg.trace {
		out.metrics = endToEnd(setupS, gated, bps, bpc, rss)
		return out, nil
	}

	tbps, _, _ := rate(traced)
	var hits, misses, records, fsyncs float64
	for _, r := range traced {
		hits += r.counters["bcwan_chain_sigcache_hits_total"]
		misses += r.counters["bcwan_chain_sigcache_misses_total"]
		records += r.records
		fsyncs += r.fsyncs
	}
	addExchange := durations(out.spans, "chain.add_block.exchange")
	addSettle := durations(out.spans, "chain.add_block.settle")
	add := summarize(append(append([]float64(nil), addExchange...), addSettle...))
	n := float64(len(traced) * len(h.raw))
	m := out.metrics
	m["chain.add_block_p50_ms"] = add.P50
	m["chain.add_block_p99_ms"] = add.Tail
	m["chain.add_block_exchange_p50_ms"] = summarize(addExchange).P50
	m["chain.add_block_settle_p50_ms"] = summarize(addSettle).P50
	m["chain.sigcache_hit_rate"] = ratio(hits, hits+misses)
	m["daemon.store_append_ms"] = summarize(durations(out.spans, "daemon.store_append")).P50
	m["daemon.records_per_fsync"] = ratio(records, fsyncs)
	m["runtime.alloc_kb_per_op"] = ratio(tracedSt.AllocBytes/1024, n)
	m["runtime.gc_cpu_share"] = tracedSt.GCShare
	m["trace.overhead_share"] = 1 - ratio(tbps, bps)
	m["failed_share"] = ratio(float64(out.failed), float64(out.attempted))
	addLatencyLayer(m, lat)
	if err := addCPUShares(m, out.cpuProfile); err != nil {
		return nil, err
	}
	for _, name := range sortedKeys(m) {
		out.line(name, m[name], "", "traced replays")
	}
	return out, nil
}
