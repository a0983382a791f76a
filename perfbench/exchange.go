package main

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/daemon"
	"bcwan/internal/device"
	"bcwan/internal/fairex"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
	"bcwan/internal/p2p"
	"bcwan/internal/recipient"
	"bcwan/internal/script"
	"bcwan/internal/wallet"
)

// The onchain and channel workloads drive the paper's Fig. 3 exchange
// through the deployable daemons: a miner node, a GatewayDaemon node and
// a RecipientDaemon node, each persisting to its own data dir, gossiping
// over p2p.MemTransport, with the step-7 delivery over loopback TCP.
// Sensors run a closed loop: each starts its next exchange once the
// recipient's OnReceive callback has delivered its reading.

const (
	// price is the gateway's per-delivery price.
	price = 100
	// recipientFunds is what the treasury pays the recipient at set-up;
	// channelCapacity is what the recipient locks into its channel. Both
	// cover tens of thousands of exchanges, so no run rolls a channel
	// over or runs dry mid-window.
	recipientFunds  = 9_000_000
	channelCapacity = 8_000_000
	// exchangeDeadline fails an exchange whose reading has not landed.
	exchangeDeadline = 10 * time.Second
	// setupTimeout bounds each wait during federation bring-up.
	setupTimeout = 30 * time.Second
	// claimPoll is how often the on-demand miner looks for a pooled
	// claim. The daemon offers no pool-admission hook, so this short
	// poll stands in for one; it adds at most this much to block wait.
	claimPoll = 100 * time.Microsecond
	// refundSkewSlack is how many blocks the recipient adds to the
	// gateway's refund window. The gateway checks a payment's refund
	// height against its own chain height at the offer, the recipient
	// writes it from its own height, and with two sensors and on-demand
	// blocks the gateway is often one block ahead: without slack the
	// claim is refused and the gateway retries it for 30 s. The slack is
	// the 2-block skew channel fundings already tolerate; the exchanges
	// that needed it are counted as fairex.refund_skew_exposed.
	refundSkewSlack = 2
	// refusedDelivery marks a gateway error for a delivery the recipient
	// refused before paying (the refusal crosses the TCP leg as text).
	// Two sensors of one recipient can have their payments built from the
	// same unconfirmed change output, and the mempool then refuses the
	// second: the sensor retransmits up to maxRefusedRetries times, each
	// after a backoff one refusedBackoff longer than the last (so the two
	// sensors stop building payments in lockstep), and the
	// retransmissions are counted as daemon.delivery_retries.
	refusedDelivery   = "recipient refused delivery"
	maxRefusedRetries = 5
	refusedBackoff    = time.Millisecond
	// readingLen is a sensor reading: sensor index, exchange counter and
	// seeded filler, filling the single-block Fig. 4 plaintext.
	readingLen = bccrypto.MaxCanonicalPlaintext
)

// exchangeKey names one exchange: the sensor and its request counter.
type exchangeKey struct {
	eui     lora.DevEUI
	counter uint32
}

// waiter is an exchange waiting for its reading at the recipient.
type waiter struct {
	done chan struct{} // closed by onReceive
	at   time.Time     // when OnReceive delivered the reading
	msg  *recipient.Message
}

// sensor is one provisioned device plus the seeded source of its
// readings.
type sensor struct {
	idx int
	dev *device.Device
	eui lora.DevEUI
	rng *mrand.Rand
}

// reading builds the plaintext for one exchange: it names the sensor and
// counter (so a delivered reading can be matched to its exchange) and
// fills the rest from the seed.
func (s *sensor) reading(counter uint32) []byte {
	b := make([]byte, readingLen)
	b[0] = byte(s.idx)
	binary.BigEndian.PutUint32(b[1:5], counter)
	s.rng.Read(b[5:])
	return b
}

// exchangeRecord is what one exchange left behind for the analysis.
type exchangeRecord struct {
	sensor    int
	start     time.Time
	delivered time.Time // the data-frame HandleUplink returned
	recv      time.Time // OnReceive delivered the reading
	root      int       // root span id (-1 untraced)
	ePk       []byte
	paymentID chain.Hash
	// gwHeight is the gateway's chain height just before the data frame
	// went in: the offer height its payment check uses.
	gwHeight int64
	// retries counts data-frame retransmissions after a refused delivery.
	retries int
	err     error
	// ackBeforeRecord: the data-frame HandleUplink returned before the
	// reading reached the recipient's OnReceive (channel path only).
	ackBeforeRecord bool
}

func (r *exchangeRecord) latencyMS() float64 { return float64(r.recv.Sub(r.start)) / 1e6 }

// federation is one three-daemon deployment with its sensors.
type federation struct {
	channels bool
	dir      string
	master   *daemon.Node
	gwNode   *daemon.Node
	rcptNode *daemon.Node
	gwd      *daemon.GatewayDaemon
	rcptd    *daemon.RecipientDaemon
	gwMgr    *daemon.ChannelManager
	rcptMgr  *daemon.ChannelManager
	sensors  []*sensor
	miner    *onDemandMiner // onchain only

	mu      sync.Mutex
	waiting map[exchangeKey]*waiter
	strays  int // readings that matched no exchange, or differed from what it sent
	// settledReadings remembers what each settled exchange delivered, so a
	// reading delivered twice is told apart from a stray one.
	settledReadings map[exchangeKey][]byte
	duplicates      int // readings OnReceive delivered a second time
	// warmups counts exchanges settled during set-up.
	warmups int
}

// newFederation brings a federation up: genesis, recipient funding and
// binding mined, channel opened and funded (channel workload), sensors
// provisioned. Sensor material comes from rng; daemon keys from
// crypto/rand, as a deployment would draw them.
func newFederation(workDir string, rng *mrand.Rand, channels bool, sensors int) (_ *federation, err error) {
	f := &federation{
		channels:        channels,
		waiting:         make(map[exchangeKey]*waiter),
		settledReadings: make(map[exchangeKey][]byte),
	}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.dir, err = os.MkdirTemp(workDir, "federation-"); err != nil {
		return nil, err
	}
	treasury, err := wallet.New(rand.Reader)
	if err != nil {
		return nil, err
	}
	minerKey, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	params := chain.DefaultParams()
	genesis := chain.GenesisBlock(map[[20]byte]uint64{treasury.PubKeyHash(): 10_000_000})
	miners := [][]byte{minerKey.PublicBytes()}
	tr := p2p.NewMemTransport()
	node := func(name string, miner *bccrypto.ECKey, peers ...string) (*daemon.Node, error) {
		n, err := daemon.NewNode(daemon.NodeConfig{
			Genesis: genesis, Params: params, Miners: miners, MinerKey: miner,
			// The miner never mines on its own timer within a run: the
			// benchmark mines on demand.
			MineInterval: time.Hour, Transport: tr, Peers: peers,
		})
		if err != nil {
			return nil, fmt.Errorf("%s node: %w", name, err)
		}
		if _, err := n.Open(filepath.Join(f.dir, name)); err != nil {
			n.Close()
			return nil, fmt.Errorf("%s node: open data dir: %w", name, err)
		}
		// Headers-first sync waits for the store before it starts; kick
		// it now rather than on its next 500 ms retry tick, which made
		// bring-up take 0.5 s or 1.5 s at random.
		n.RequestSync()
		return n, nil
	}
	if f.master, err = node("miner", minerKey); err != nil {
		return nil, err
	}
	if f.gwNode, err = node("gateway", nil, f.master.P2PAddr()); err != nil {
		return nil, err
	}
	if f.rcptNode, err = node("recipient", nil, f.master.P2PAddr(), f.gwNode.P2PAddr()); err != nil {
		return nil, err
	}
	gwCfg := gateway.DefaultConfig()
	gwCfg.Price = price
	if f.gwd, err = daemon.NewGatewayDaemon(f.gwNode, gwCfg, nil, nil); err != nil {
		return nil, err
	}
	rcptCfg := recipient.DefaultConfig()
	rcptCfg.RefundWindow = gwCfg.RefundWindow + refundSkewSlack
	if f.rcptd, err = daemon.NewRecipientDaemon(f.rcptNode, rcptCfg, "127.0.0.1:0", nil, nil); err != nil {
		return nil, err
	}
	f.rcptd.OnReceive(f.onReceive)
	if channels {
		ccfg := daemon.DefaultChannelConfig()
		ccfg.Capacity = channelCapacity
		ccfg.StoreDir = filepath.Join(f.dir, "gateway-channels")
		if f.gwMgr, err = f.gwd.EnableChannels(ccfg); err != nil {
			return nil, err
		}
		ccfg.StoreDir = filepath.Join(f.dir, "recipient-channels")
		if f.rcptMgr, err = f.rcptd.EnableChannels(ccfg); err != nil {
			return nil, err
		}
		if f.gwMgr == nil || f.rcptMgr == nil {
			return nil, errors.New("channels disabled on a daemon")
		}
	}

	fund, err := treasury.BuildPayment(f.master.Ledger().UTXO(), f.rcptd.Recipient.Wallet().PubKeyHash(), recipientFunds, 1)
	if err != nil {
		return nil, err
	}
	if err := f.master.Ledger().Submit(fund); err != nil {
		return nil, err
	}
	if err := f.mine(); err != nil {
		return nil, err
	}
	bind, err := f.rcptd.PublishBinding(1)
	if err != nil {
		return nil, err
	}
	if err := waitPooled(f.master, bind.ID()); err != nil {
		return nil, err
	}
	if err := f.mine(); err != nil {
		return nil, err
	}

	for i := 0; i < sensors; i++ {
		s, err := f.provision(i, rng)
		if err != nil {
			return nil, err
		}
		f.sensors = append(f.sensors, s)
	}

	if !channels {
		f.miner = startMiner(f.master)
		return f, nil
	}
	// The first priced delivery opens the channel; mine its funding so
	// the measured exchanges are pure channel updates.
	warm := f.exchange(f.sensors[0], newTracer(false))
	if warm.err != nil {
		return nil, fmt.Errorf("channel-opening exchange: %w", warm.err)
	}
	f.warmups++
	list, err := f.rcptMgr.ListChannels()
	if err != nil {
		return nil, err
	}
	sums := list.([]daemon.ChannelSummary)
	if len(sums) != 1 {
		return nil, fmt.Errorf("%d channels after the first delivery, want 1", len(sums))
	}
	fundingID, err := chain.HashFromString(sums[0].ID)
	if err != nil {
		return nil, err
	}
	if err := waitPooled(f.master, fundingID); err != nil {
		return nil, err
	}
	if err := f.mine(); err != nil {
		return nil, err
	}
	return f, nil
}

// provision creates sensor i and registers it with the recipient.
func (f *federation) provision(i int, rng *mrand.Rand) (*sensor, error) {
	shared := make([]byte, bccrypto.AESKeySize)
	rng.Read(shared)
	nodeKey, err := bccrypto.GenerateRSA512(rng)
	if err != nil {
		return nil, err
	}
	eui := lora.DevEUI{0xbe, 0xc4, byte(i)}
	dev, err := device.New(device.Provisioning{
		DevEUI:        eui,
		SharedKey:     shared,
		SigningKey:    nodeKey,
		RecipientAddr: f.rcptd.Recipient.Wallet().PubKeyHash(),
	}, rand.Reader)
	if err != nil {
		return nil, err
	}
	f.rcptd.Recipient.Provision(eui, recipient.DeviceInfo{SharedKey: shared, NodePub: nodeKey.Public()})
	return &sensor{idx: i, dev: dev, eui: eui, rng: mrand.New(mrand.NewSource(rng.Int63()))}, nil
}

// mine mints one block on the miner and waits until both replicas hold
// it (set-up only).
func (f *federation) mine() error {
	b, err := f.master.MineNow()
	if err != nil {
		return err
	}
	h := b.Header.Height
	return waitUntil("replicas to adopt the block", func() bool {
		return f.gwNode.Chain().Height() >= h && f.rcptNode.Chain().Height() >= h
	})
}

func waitPooled(n *daemon.Node, id chain.Hash) error {
	return waitUntil("tx "+id.String()+" to reach the miner's pool", func() bool {
		_, ok := n.Ledger().PendingTx(id)
		return ok
	})
}

// waitUntil polls cond during set-up, where no event hook exists.
func waitUntil(what string, cond func() bool) error {
	deadline := time.Now().Add(setupTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// close stops every daemon and removes the data dirs.
func (f *federation) close() {
	if f.miner != nil {
		f.miner.stop()
	}
	if f.rcptd != nil {
		f.rcptd.Close()
	}
	for _, n := range []*daemon.Node{f.rcptNode, f.gwNode, f.master} {
		if n != nil {
			n.Close()
		}
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// onReceive is the recipient's OnReceive callback: it completes the
// exchange the reading names.
func (f *federation) onReceive(msg *recipient.Message) {
	at := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(msg.Plaintext) != readingLen {
		f.strays++
		return
	}
	key := exchangeKey{msg.DevEUI, binary.BigEndian.Uint32(msg.Plaintext[1:5])}
	w, ok := f.waiting[key]
	if !ok {
		if prev, settled := f.settledReadings[key]; settled && bytes.Equal(prev, msg.Plaintext) {
			f.duplicates++
		} else {
			f.strays++
		}
		return
	}
	delete(f.waiting, key)
	f.settledReadings[key] = msg.Plaintext
	w.at, w.msg = at, msg
	close(w.done)
}

// exchange runs one Fig. 3 exchange for sensor s: key request, data
// frame, delivery (and claim), then waits for the reading to land.
func (f *federation) exchange(s *sensor, tr *tracer) *exchangeRecord {
	kr := s.dev.KeyRequestFrame()
	key := exchangeKey{s.eui, kr.Counter}
	want := s.reading(kr.Counter)
	w := &waiter{done: make(chan struct{})}
	f.mu.Lock()
	f.waiting[key] = w
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.waiting, key)
		f.mu.Unlock()
	}()

	rec := &exchangeRecord{sensor: s.idx, start: time.Now()}
	rec.root = tr.begin("exchange", -1, s.idx)
	sp := tr.begin("gateway.key_request", rec.root, s.idx)
	resp, err := f.gwd.HandleUplink(kr)
	tr.end(sp)
	if err != nil {
		rec.err = fmt.Errorf("key request: %w", err)
		return rec
	}
	rec.ePk = resp.Payload
	sp = tr.begin("device.data_frame", rec.root, s.idx)
	frame, err := s.dev.DataFrame(want, resp.Payload, resp.Counter)
	tr.end(sp)
	if err != nil {
		rec.err = fmt.Errorf("data frame: %w", err)
		return rec
	}
	rec.gwHeight = f.gwNode.Chain().Height()
	sp = tr.begin("daemon.deliver", rec.root, s.idx)
	_, err = f.gwd.HandleUplink(frame)
	for retry := 0; err != nil && retry < maxRefusedRetries && strings.Contains(err.Error(), refusedDelivery); retry++ {
		// The recipient refused before paying, so nothing is owed: the
		// sensor retransmits its data frame.
		rec.retries++
		time.Sleep(time.Duration(rec.retries) * refusedBackoff)
		_, err = f.gwd.HandleUplink(frame)
	}
	tr.end(sp)
	rec.delivered = time.Now()
	if err != nil {
		rec.err = fmt.Errorf("deliver: %w", err)
		return rec
	}
	if f.channels {
		select {
		case <-w.done:
		default:
			rec.ackBeforeRecord = true
		}
	} else {
		f.miner.claimSubmitted()
	}
	timer := time.NewTimer(exchangeDeadline)
	defer timer.Stop()
	select {
	case <-w.done:
	case <-timer.C:
		rec.err = fmt.Errorf("reading of exchange %d missed its %v deadline", kr.Counter, exchangeDeadline)
		return rec
	}
	rec.recv = w.at
	tr.endAt(rec.root, w.at)
	if !bytes.Equal(w.msg.Plaintext, want) {
		rec.err = fmt.Errorf("exchange %d: decrypted reading %x, sensor sent %x", kr.Counter, w.msg.Plaintext, want)
		return rec
	}
	rec.paymentID = w.msg.PaymentID
	return rec
}

// runLoad drives every sensor in a closed loop until the deadline, or
// until each sensor has run quota exchanges when quota is positive, and
// returns the exchanges in completion order per sensor.
func (f *federation) runLoad(until time.Time, quota int, tr *tracer) []*exchangeRecord {
	perSensor := make([][]*exchangeRecord, len(f.sensors))
	var wg sync.WaitGroup
	for i, s := range f.sensors {
		wg.Add(1)
		go func(i int, s *sensor) {
			defer wg.Done()
			for time.Now().Before(until) && (quota <= 0 || len(perSensor[i]) < quota) {
				rec := f.exchange(s, tr)
				perSensor[i] = append(perSensor[i], rec)
				if rec.err != nil {
					return // a failed exchange leaves the sensor's state unknown
				}
			}
		}(i, s)
	}
	wg.Wait()
	var out []*exchangeRecord
	for _, recs := range perSensor {
		out = append(out, recs...)
	}
	return out
}

// onDemandMiner mines a block as soon as a claim reaches the miner's
// pool, so on-chain latency is program time, never a block-interval
// sleep.
type onDemandMiner struct {
	node        *daemon.Node
	wake        chan struct{} // capacity 1: one pending wake-up is enough
	outstanding atomic.Int64  // claims submitted but not yet mined
	quit        chan struct{}
	done        chan struct{}

	mu    sync.Mutex
	mined map[int64]mineRecord
	err   error
}

type mineRecord struct {
	start, end time.Time
	claims     int
}

func startMiner(n *daemon.Node) *onDemandMiner {
	m := &onDemandMiner{
		node:  n,
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		mined: make(map[int64]mineRecord),
	}
	go m.run()
	return m
}

// claimSubmitted tells the miner a gateway has pooled one more claim.
func (m *onDemandMiner) claimSubmitted() {
	m.outstanding.Add(1)
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

func (m *onDemandMiner) stop() {
	close(m.quit)
	<-m.done
}

func (m *onDemandMiner) run() {
	defer close(m.done)
	for {
		if m.outstanding.Load() <= 0 {
			select {
			case <-m.wake:
				continue
			case <-m.quit:
				return
			}
		}
		select {
		case <-m.quit:
			return
		default:
		}
		if !poolHasClaim(m.node) {
			time.Sleep(claimPoll)
			continue
		}
		start := time.Now()
		b, err := m.node.MineNow()
		end := time.Now()
		if err != nil {
			m.mu.Lock()
			m.err = err
			m.mu.Unlock()
			continue
		}
		n := countClaims(b)
		m.mu.Lock()
		m.mined[b.Header.Height] = mineRecord{start: start, end: end, claims: n}
		m.mu.Unlock()
		m.outstanding.Add(-int64(n))
	}
}

func (m *onDemandMiner) record(h int64) (mineRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.mined[h]
	return r, ok
}

// isClaim reports whether a transaction input reveals an RSA key
// through the Listing 1 claim path.
func isClaim(in chain.TxIn) bool {
	_, err := script.ExtractClaimedRSAKey(in.Unlock)
	return err == nil
}

func poolHasClaim(n *daemon.Node) bool {
	for _, tx := range n.Ledger().Pool.Select(chain.DefaultParams().MaxBlockTxs) {
		for _, in := range tx.Inputs {
			if isClaim(in) {
				return true
			}
		}
	}
	return false
}

func countClaims(b *chain.Block) int {
	n := 0
	for _, tx := range b.Txs {
		for _, in := range tx.Inputs {
			if isClaim(in) {
				n++
			}
		}
	}
	return n
}

// checkOnChain verifies every settled exchange's claim: one mined claim
// per exchange, disclosing the key that matches the exchange's ePk.
// It returns a description of each problem and the claim's height per
// exchange (for the block-wait spans).
func (f *federation) checkOnChain(recs []*exchangeRecord, fromHeight, toHeight int64) (problems []string, heights map[*exchangeRecord]int64, skewExposed int) {
	heights = make(map[*exchangeRecord]int64, len(recs))
	ch := f.master.Chain()
	window := gateway.DefaultConfig().RefundWindow
	settled := 0
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		settled++
		_, h, ok := ch.FindSpender(chain.OutPoint{TxID: r.paymentID, Index: 0})
		if !ok {
			problems = append(problems, fmt.Sprintf("payment %s has no mined claim", r.paymentID))
			continue
		}
		heights[r] = h
		if pay, _, ok := ch.FindTx(r.paymentID); ok {
			if p, err := script.ParseKeyRelease(pay.Outputs[0].Lock); err == nil && p.RefundHeight-refundSkewSlack < r.gwHeight+window {
				skewExposed++
			}
		}
		key, err := fairex.ExtractKeyFromClaim(f.master.Ledger(), r.paymentID)
		if err != nil {
			problems = append(problems, fmt.Sprintf("payment %s: %v", r.paymentID, err))
			continue
		}
		pub, err := bccrypto.UnmarshalRSA512PublicKey(r.ePk)
		if err != nil || !key.MatchesPublic(pub) {
			problems = append(problems, fmt.Sprintf("payment %s: claim discloses a key that does not match the exchange's ePk", r.paymentID))
		}
	}
	claims := 0
	for h := fromHeight + 1; h <= toHeight; h++ {
		if b, ok := ch.BlockAt(h); ok {
			claims += countClaims(b)
		}
	}
	if claims != settled {
		problems = append(problems, fmt.Sprintf("%d claims mined for %d settled exchanges", claims, settled))
	}
	return problems, heights, skewExposed
}

// checkChannel verifies that both channel ends agree the recipient paid
// exactly price × settled exchanges.
func (f *federation) checkChannel(settled int) []string {
	var problems []string
	want := uint64(price * settled)
	for _, side := range []struct {
		name string
		mgr  *daemon.ChannelManager
	}{{"recipient", f.rcptMgr}, {"gateway", f.gwMgr}} {
		list, err := side.mgr.ListChannels()
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s channels: %v", side.name, err))
			continue
		}
		var paid uint64
		for _, s := range list.([]daemon.ChannelSummary) {
			paid += s.Paid
		}
		if paid != want {
			problems = append(problems, fmt.Sprintf("%s channel paid %d, want price %d × %d settled = %d",
				side.name, paid, price, settled, want))
		}
	}
	return problems
}

// counters reads the telemetry of the three daemons.
func (f *federation) counters() counters {
	return readCounters(f.master.Telemetry(), f.gwNode.Telemetry(), f.rcptNode.Telemetry())
}

// fsyncs is the number of chain-store log fsyncs across the daemons.
func (f *federation) fsyncs() float64 {
	var n uint64
	for _, d := range []*daemon.Node{f.master, f.gwNode, f.rcptNode} {
		if st := d.Store(); st != nil {
			n += st.Syncs()
		}
	}
	return float64(n)
}
