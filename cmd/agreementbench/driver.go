package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rdmaagreement"
	"rdmaagreement/client"
	"rdmaagreement/internal/wire"
	"rdmaagreement/kvserver"
)

// throughputConfig is one throughput run's knobs, echoed into the JSON record
// so a comparison knows what it is comparing.
type throughputConfig struct {
	Shards       int           `json:"shards"`
	Batch        int           `json:"batch"`
	BatchBytes   int           `json:"batch_bytes,omitempty"`
	BatchWait    time.Duration `json:"batch_wait_ns,omitempty"`
	Warmup       float64       `json:"warmup_frac,omitempty"`
	Ops          int           `json:"ops"`
	Clients      int           `json:"clients"`
	Latency      time.Duration `json:"latency_ns"`
	Reads        int           `json:"reads"`
	SnapInterval int           `json:"snap_interval"`
	Pipeline     int           `json:"pipeline"`
	Lease        time.Duration `json:"lease_ns"`
	Failover     bool          `json:"failover"`
	Rebalance    bool          `json:"rebalance"`
	Net          bool          `json:"net,omitempty"`
}

// warmupOps is how many unmeasured puts precede the measurement window.
func (c throughputConfig) warmupOps() int {
	if c.Warmup <= 0 || c.Ops <= 0 {
		return 0
	}
	return int(float64(c.Ops) * c.Warmup)
}

// benchLogOptions is the per-group log configuration of a throughput run.
func benchLogOptions(cfg throughputConfig) rdmaagreement.LogOptions {
	opts := rdmaagreement.LogOptions{
		Cluster:          rdmaagreement.Options{Processes: 3, Memories: 3, MemoryLatency: cfg.Latency, LeaseDuration: cfg.Lease},
		MaxBatch:         cfg.Batch,
		BatchBytes:       cfg.BatchBytes,
		BatchWait:        cfg.BatchWait,
		Pipeline:         cfg.Pipeline,
		SnapshotInterval: cfg.SnapInterval,
	}
	if cfg.Failover {
		// The first slot committed after a takeover waits one replica
		// catch-up window for the dead leader's learner; bound it by the
		// lease so the reported failover time measures the protocol, not a
		// 5-second default.
		opts.ReplicaCatchUp = 2 * cfg.Lease
	}
	return opts
}

// throughputResult is the machine-readable record -json writes and -compare
// gates on.
type throughputResult struct {
	Config        throughputConfig `json:"config"`
	ElapsedMS     float64          `json:"elapsed_ms"`
	AppendsPerSec float64          `json:"appends_per_sec"`
	AppendP50MS   float64          `json:"append_p50_ms"`
	AppendP99MS   float64          `json:"append_p99_ms"`
	Slots         uint64           `json:"slots"`
	Snapshots     int              `json:"snapshots"`
	LiveRegions   int              `json:"live_regions"`
	LiveInstances int              `json:"live_instances"`
	PeakInstances int              `json:"peak_instances"`
	Recovered     uint64           `json:"recovered_slots"`
	Refused       uint64           `json:"refused_noops"`
	ReadsPerSec   float64          `json:"reads_per_sec,omitempty"`
	ReadP50MS     float64          `json:"read_p50_ms,omitempty"`
	ReadP99MS     float64          `json:"read_p99_ms,omitempty"`
	LeaseReads    uint64           `json:"lease_reads"`
	BarrierReads  uint64           `json:"barrier_reads"`
	Epoch         uint64           `json:"lease_epoch,omitempty"`
	Takeovers     uint64           `json:"lease_takeovers"`
	// FailoverEpochMS is the span from stalling a lease holder to the
	// successor's epoch being in force; FailoverCommitMS extends it to the
	// first command committed under the new epoch.
	FailoverEpochMS  float64 `json:"failover_epoch_ms,omitempty"`
	FailoverCommitMS float64 `json:"failover_commit_ms,omitempty"`
	// Rebalance audit (-rebalance): the AddShard handoff's span, the keys it
	// migrated, the operations its moving ranges forwarded, the put rate in
	// the sampling windows before/during/after it — and the safety audit,
	// which must report zero lost and zero forked keys.
	RebalanceHandoffMS  float64 `json:"rebalance_handoff_ms,omitempty"`
	RebalanceMovedKeys  uint64  `json:"rebalance_moved_keys,omitempty"`
	RebalanceForwarded  uint64  `json:"rebalance_forwarded_ops,omitempty"`
	RebalanceRateBefore float64 `json:"rebalance_rate_before,omitempty"`
	RebalanceRateDuring float64 `json:"rebalance_rate_during,omitempty"`
	RebalanceRateAfter  float64 `json:"rebalance_rate_after,omitempty"`
	RebalanceLostKeys   int     `json:"rebalance_lost_keys"`
	RebalanceForkedKeys int     `json:"rebalance_forked_keys"`
	// Served front-end (-net): requests the kvserver admitted and 503s the
	// clients absorbed by retrying. LostResponses, on either target, counts
	// measured puts that never got an answer (for a served put, every retry
	// failed); it must be zero.
	ServedOps     uint64 `json:"served_ops,omitempty"`
	LostResponses int64  `json:"lost_responses"`
	ShedResponses uint64 `json:"shed_503s,omitempty"`
	// Slot-lifecycle stage decomposition from the store's metrics registry:
	// where a committed command's end-to-end latency went (waiting to be
	// batched, the agreement round, waiting for in-order release, apply),
	// plus the queue-depth high-water marks and the run's heap allocations
	// per committed op (whole-process, so client bookkeeping is included).
	StageBatchWaitP50MS  float64 `json:"stage_batch_wait_p50_ms"`
	StageBatchWaitP99MS  float64 `json:"stage_batch_wait_p99_ms"`
	StageAgreementP50MS  float64 `json:"stage_agreement_p50_ms"`
	StageAgreementP99MS  float64 `json:"stage_agreement_p99_ms"`
	StageCommitWaitP50MS float64 `json:"stage_commit_wait_p50_ms"`
	StageCommitWaitP99MS float64 `json:"stage_commit_wait_p99_ms"`
	StageApplyP50MS      float64 `json:"stage_apply_p50_ms"`
	StageApplyP99MS      float64 `json:"stage_apply_p99_ms"`
	StageE2EP50MS        float64 `json:"stage_e2e_p50_ms"`
	StageE2EP99MS        float64 `json:"stage_e2e_p99_ms"`
	QueueDepthPeak       int64   `json:"queue_depth_peak"`
	InflightSlotsPeak    int64   `json:"inflight_slots_peak"`
	ReorderDepthPeak     int64   `json:"reorder_depth_peak"`
	// Adaptive group commit's chosen batch sizes (commands per cut batch).
	BatchSizeMean float64 `json:"batch_size_mean"`
	BatchSizeP50  float64 `json:"batch_size_p50"`
	BatchSizeP99  float64 `json:"batch_size_p99"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
}

// kvAPI is what the driver calls on a target. *rdmaagreement.ShardedKV and
// *client.Client both provide it.
type kvAPI interface {
	Put(ctx context.Context, key, value string) (string, uint64, error)
	GetLinearizable(ctx context.Context, key string) (string, bool, error)
	AddShard(ctx context.Context, name string) error
}

// target is the store a throughput run drives: the in-process ShardedKV, or
// that same store behind an in-process kvserver on loopback TCP with one
// client, and so one connection, per worker. Every phase is written once
// against it.
type target struct {
	kv      *rdmaagreement.ShardedKV // the store itself: stats, metrics, raw per-group probes
	workers []kvAPI                  // one per closed-loop worker
	admin   kvAPI                    // reads, the shard add, the audit and failover probes
	// keyPrefix turns a client key into the key the store holds, which the
	// raw per-group audit probe and shard lookups need: the default tenant's
	// prefix when served.
	keyPrefix string
	addr      string // the kvserver's address when served
	close     func() error
}

func newTarget(cfg throughputConfig) (*target, error) {
	kv, err := rdmaagreement.NewShardedKV(rdmaagreement.ShardedKVOptions{
		Shards: cfg.Shards,
		Log:    benchLogOptions(cfg),
	})
	if err != nil {
		return nil, err
	}
	if cfg.Net {
		return serve(kv, cfg.Clients)
	}
	t := &target{kv: kv, admin: kv, workers: make([]kvAPI, cfg.Clients)}
	for w := range t.workers {
		t.workers[w] = kv
	}
	t.close = func() error { kv.Close(); return nil }
	return t, nil
}

// serve fronts kv with a kvserver on a loopback listener and builds one
// client per worker plus one for the admin path.
func serve(kv *rdmaagreement.ShardedKV, workers int) (*target, error) {
	// The closed loop has at most one data request in flight per worker, so
	// the global bound only has to clear the worker count; keeping headroom
	// means any shed the clients absorb comes from deliberate tests, not the
	// bench.
	srv, err := kvserver.New(kvserver.Options{Store: kv, MaxInflight: max(1024, 2*workers)})
	if err != nil {
		kv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		kv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	t := &target{kv: kv, keyPrefix: wire.TenantKey("", ""), addr: ln.Addr().String()}
	clients := make([]*client.Client, 0, workers+1)
	t.close = func() error {
		// Drain the front-end before the store goes away.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		<-serveDone
		for _, cl := range clients {
			cl.Close()
		}
		kv.Close()
		if err != nil {
			return fmt.Errorf("drain kvserver: %w", err)
		}
		return nil
	}
	base := "http://" + t.addr
	for range workers + 1 {
		cl, err := client.New(client.Options{Endpoints: []string{base}})
		if err != nil {
			t.close()
			return nil, err
		}
		clients = append(clients, cl)
	}
	for _, cl := range clients[:workers] {
		t.workers = append(t.workers, cl)
	}
	admin := clients[workers]
	t.admin = admin
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := admin.RefreshRing(ctx); err != nil {
		t.close()
		return nil, fmt.Errorf("fetch ring over %s: %w", base, err)
	}
	return t, nil
}

// loop is one closed-loop phase: n puts of prefix+i = "v"+i spread over the
// target's workers, each with at most one put outstanding. Warmup and
// measurement are both a loop.
type loop struct {
	prefix string
	n      int

	next      atomic.Int64 // the next put index to claim
	committed atomic.Int64 // acknowledged puts so far, read by the handoff's sampler
	lost      atomic.Int64 // puts that never got an answer
	errMu     sync.Mutex
	err       error // the first lost put's error; guarded by errMu

	acked   []bool            // acked[i]: put i was acknowledged
	lat     [][]time.Duration // per worker, acknowledged puts only
	elapsed time.Duration
}

func (l *loop) key(i int) (key, value string) {
	n := strconv.Itoa(i)
	return l.prefix + n, "v" + n
}

func (l *loop) run(ctx context.Context, t *target) {
	l.acked = make([]bool, l.n)
	l.lat = make([][]time.Duration, len(t.workers))
	var wg sync.WaitGroup
	start := time.Now()
	for w, api := range t.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(l.next.Add(1) - 1); i < l.n; i = int(l.next.Add(1) - 1) {
				key, value := l.key(i)
				t0 := time.Now()
				if _, _, err := api.Put(ctx, key, value); err != nil {
					// A lost response: counted, and the run fails at the
					// end, but the loop goes on so the record covers the
					// whole run.
					l.lost.Add(1)
					l.errMu.Lock()
					if l.err == nil {
						l.err = err
					}
					l.errMu.Unlock()
					continue
				}
				l.lat[w] = append(l.lat[w], time.Since(t0))
				l.acked[i] = true
				l.committed.Add(1)
			}
		}()
	}
	wg.Wait()
	l.elapsed = time.Since(start)
}

// latencies returns every acknowledged put's latency, sorted.
func (l *loop) latencies() []time.Duration {
	all := slices.Concat(l.lat...)
	slices.Sort(all)
	return all
}

// runThroughput is the throughput driver. It builds the target and runs the
// phases in one fixed order — warmup, measure (adding a shard mid-run with
// -rebalance), reads, failover, audit — then prints the run and writes its
// record. A lost response or a lost or forked key fails the run once the
// record is written.
func runThroughput(cfg throughputConfig, jsonPath string) (err error) {
	t, err := newTarget(cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := t.close(); err == nil {
			err = cerr
		}
	}()
	liveRegistry.Store(t.kv.Registry())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// Warmup commits a fraction of the workload, same concurrency, on keys
	// outside the measured key space, before the memstats baseline and the
	// timing window: pools, maps and connections have settled by then, which
	// is what makes small -ops invocations comparable.
	warm := &loop{prefix: "warm/", n: cfg.warmupOps()}
	warm.run(ctx, t)
	if n := warm.lost.Load(); n > 0 {
		return fmt.Errorf("warmup: %d responses lost (first error: %v)", n, warm.err)
	}

	m := &loop{prefix: "key/", n: cfg.Ops}
	var h *handoff
	if cfg.Rebalance {
		h = startHandoff(ctx, t, m, fmt.Sprintf("shard-%d", cfg.Shards))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.run(ctx, t)
	runtime.ReadMemStats(&after)
	if h != nil {
		if err := h.wait(ctx, t); err != nil {
			return err
		}
	}

	r := measured(cfg, t, m, before, after)
	if cfg.Reads > 0 {
		if err := readPhase(ctx, t, cfg, &r); err != nil {
			return err
		}
	}
	if cfg.Failover {
		if err := failoverPhase(ctx, t, &r); err != nil {
			return err
		}
	}
	if h != nil {
		if err := h.audit(ctx, t, m, &r); err != nil {
			return err
		}
	}

	stats := t.kv.Stats()
	r.Recovered, r.Refused = stats.Recovered, stats.Refused
	r.LeaseReads, r.BarrierReads = stats.LeaseReads, stats.BarrierReads
	r.Epoch, r.Takeovers = stats.Epoch, stats.Takeovers
	fmt.Printf("  pipeline: %d peak concurrent slot instances; recovery: %d slots recovered (%d refused no-ops); reads: %d lease-served (zero slots), %d barrier (read-index slot)\n",
		r.PeakInstances, r.Recovered, r.Refused, r.LeaseReads, r.BarrierReads)

	if jsonPath != "" {
		blob, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return fmt.Errorf("encode result: %w", err)
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", jsonPath, err)
		}
	}
	if r.LostResponses > 0 {
		return fmt.Errorf("%d responses lost (first error: %v)", r.LostResponses, m.err)
	}
	if r.RebalanceLostKeys > 0 || r.RebalanceForkedKeys > 0 {
		return fmt.Errorf("rebalance audit failed: %d lost, %d forked keys", r.RebalanceLostKeys, r.RebalanceForkedKeys)
	}
	return nil
}

// measured fills and prints the fields of the measured loop: throughput,
// append latency, lost responses, the served-path counters, the slot and
// GC footprint per group, and the stage breakdown.
func measured(cfg throughputConfig, t *target, m *loop, before, after runtime.MemStats) throughputResult {
	lat := m.latencies()
	committed := m.committed.Load()
	reg := t.kv.Registry()
	r := throughputResult{
		Config:        cfg,
		ElapsedMS:     millis(m.elapsed),
		AppendsPerSec: float64(committed) / m.elapsed.Seconds(),
		AppendP50MS:   millis(percentile(lat, 50)),
		AppendP99MS:   millis(percentile(lat, 99)),
		ServedOps:     uint64(reg.Counter("server_requests").Load()),
		LostResponses: m.lost.Load(),
		ShedResponses: uint64(reg.Counter("server_shed_overloaded").Load() +
			reg.Counter("server_shed_conn_busy").Load() +
			reg.Counter("server_shed_draining").Load()),
	}
	where := "in process"
	if t.addr != "" {
		where = "behind kvserver on " + t.addr
	}
	fmt.Printf("sharded-log throughput — %d groups %s, %d clients, batch ≤ %d, pipeline %s, memory latency %s, lease %s\n",
		cfg.Shards, where, cfg.Clients, cfg.Batch, pipelineLabel(cfg.Pipeline), cfg.Latency, leaseLabel(cfg.Lease))
	fmt.Printf("  committed %d/%d puts in %s: %.0f appends/sec aggregate, latency p50 %s / p99 %s; %d responses lost\n",
		committed, cfg.Ops, m.elapsed.Round(time.Millisecond), r.AppendsPerSec,
		percentile(lat, 50).Round(time.Microsecond), percentile(lat, 99).Round(time.Microsecond), r.LostResponses)
	if t.addr != "" {
		fmt.Printf("  server admitted %d requests; clients absorbed %d shed 503s by retrying\n", r.ServedOps, r.ShedResponses)
	}
	var truncated uint64
	for _, name := range t.kv.Shards() {
		l := t.kv.ShardLog(name)
		c := l.Cluster()
		r.Slots += l.Slots()
		r.Snapshots += l.Snapshots()
		r.LiveRegions += c.LiveRegions()
		r.LiveInstances += c.LiveInstances()
		r.PeakInstances += c.PeakInstances()
		truncated += l.FirstIndex()
		avg := 0.0
		if l.Slots() > 0 {
			avg = float64(l.Len()) / float64(l.Slots())
		}
		fmt.Printf("  %s: %d entries over %d slots (%.1f cmds/slot)\n", name, l.Len(), l.Slots(), avg)
	}
	if r.Slots > 0 {
		fmt.Printf("  batching amortization: %.1f commands per consensus slot overall\n", float64(committed)/float64(r.Slots))
	}
	fmt.Printf("  slot GC: %d snapshots, %d entries truncated, %d live memory regions for %d total slots\n",
		r.Snapshots, truncated, r.LiveRegions, r.Slots)
	fillObservability(&r, t.kv.Metrics(), before, after, int(committed))
	return r
}

// readPhase issues the linearizable reads, serially and over the measured key
// space: the point is read latency, not read throughput.
func readPhase(ctx context.Context, t *target, cfg throughputConfig, r *throughputResult) error {
	keySpace := max(cfg.Ops, 1) // reads-only invocation (-ops 0): probe one key
	lat := make([]time.Duration, 0, cfg.Reads)
	start := time.Now()
	for i := 0; i < cfg.Reads; i++ {
		t0 := time.Now()
		if _, _, err := t.admin.GetLinearizable(ctx, "key/"+strconv.Itoa(i%keySpace)); err != nil {
			return fmt.Errorf("linearizable read: %w", err)
		}
		lat = append(lat, time.Since(t0))
	}
	elapsed := time.Since(start)
	slices.Sort(lat)
	r.ReadsPerSec = float64(cfg.Reads) / elapsed.Seconds()
	r.ReadP50MS, r.ReadP99MS = millis(percentile(lat, 50)), millis(percentile(lat, 99))
	fmt.Printf("  linearizable reads: %d in %s (%.0f reads/sec), latency p50 %s / p99 %s\n",
		cfg.Reads, elapsed.Round(time.Millisecond), r.ReadsPerSec,
		percentile(lat, 50).Round(time.Microsecond), percentile(lat, 99).Round(time.Microsecond))
	return nil
}

// failoverPhase stalls the first shard's lease holder and times the takeover:
// to the successor's epoch being in force, and to the first put committed
// under it through the target, on a probe key that shard owns.
func failoverPhase(ctx context.Context, t *target, r *throughputResult) error {
	name := t.kv.Shards()[0]
	c := t.kv.ShardLog(name).Cluster()
	old, epoch := c.LeaseHolder(), c.LeaseEpoch()
	probe := ""
	for i := 0; probe == ""; i++ {
		if key := "failover-probe/" + strconv.Itoa(i); t.kv.Shard(t.keyPrefix+key) == name {
			probe = key
		}
	}
	t0 := time.Now()
	c.CrashProcess(old)
	for c.LeaseEpoch() == epoch {
		if ctx.Err() != nil {
			return fmt.Errorf("failover: no takeover before the deadline")
		}
		time.Sleep(time.Millisecond)
	}
	epochAt := time.Since(t0)
	if _, _, err := t.admin.Put(ctx, probe, "takeover"); err != nil {
		return fmt.Errorf("failover probe put: %w", err)
	}
	commitAt := time.Since(t0)
	r.FailoverEpochMS, r.FailoverCommitMS = millis(epochAt), millis(commitAt)
	fmt.Printf("  failover: stalled %s's leader %s; epoch %d in force after %s, first commit under it after %s\n",
		name, old, c.LeaseEpoch(), epochAt.Round(time.Millisecond), commitAt.Round(time.Millisecond))
	return nil
}

// handoff is the -rebalance phase: one shard added through the target once
// 40% of the measured puts have committed, with the committed count sampled
// every 100ms so the handoff's dip can be set against steady state.
type handoff struct {
	shard    string
	from, to time.Time
	err      error
	samples  []sample
	loopDone chan struct{}
	wg       sync.WaitGroup
}

// sample is one sampler reading: the cumulative committed count at an
// instant.
type sample struct {
	at time.Time
	n  int64
}

func startHandoff(ctx context.Context, t *target, m *loop, shard string) *handoff {
	h := &handoff{shard: shard, loopDone: make(chan struct{})}
	samplerStop := make(chan struct{})
	h.wg.Add(2)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case at := <-tick.C:
				h.samples = append(h.samples, sample{at: at, n: m.committed.Load()})
			}
		}
	}()
	go func() {
		defer h.wg.Done()
		defer close(samplerStop) // sample through the whole handoff
		for trigger := int64(m.n * 2 / 5); m.committed.Load() < trigger; {
			select {
			case <-h.loopDone:
				return // the loop outran the trigger; wait hands off on quiet traffic
			case <-time.After(5 * time.Millisecond):
			}
		}
		h.add(ctx, t)
	}()
	return h
}

func (h *handoff) add(ctx context.Context, t *target) {
	h.from = time.Now()
	h.err = t.admin.AddShard(ctx, h.shard)
	h.to = time.Now()
}

// wait runs once the measured loop is done: it lets a handoff in progress
// finish, or, if the loop never reached the trigger (tiny -ops), hands off
// on quiet traffic so the audit still runs.
func (h *handoff) wait(ctx context.Context, t *target) error {
	close(h.loopDone)
	h.wg.Wait()
	if h.from.IsZero() {
		h.add(ctx, t)
	}
	if h.err != nil {
		return fmt.Errorf("AddShard(%s) under live traffic: %w", h.shard, h.err)
	}
	return nil
}

// audit reports the handoff and checks every acknowledged measured put: it
// must read back with its value through the target and live in exactly one
// group's machine (in none, it counts as lost; in several, as forked). The
// per-group probe is a raw, in-process query: it bypasses routing and the
// ownership gate, so it sees each machine's true contents, hidden ceded
// state included.
func (h *handoff) audit(ctx context.Context, t *target, m *loop, r *throughputResult) error {
	stats := t.kv.Stats()
	r.RebalanceHandoffMS = millis(h.to.Sub(h.from))
	r.RebalanceMovedKeys, r.RebalanceForwarded = stats.Migrated, stats.Forwarded
	r.RebalanceRateBefore, r.RebalanceRateDuring, r.RebalanceRateAfter = windowRates(h.samples, h.from, h.to)
	fmt.Printf("  handoff: AddShard(%s) took %s mid-workload; %d keys migrated (≈1/%d of the key space expected), %d ops forwarded to new owners\n",
		h.shard, h.to.Sub(h.from).Round(time.Millisecond), r.RebalanceMovedKeys, len(t.kv.Shards()), r.RebalanceForwarded)
	if r.RebalanceRateBefore > 0 && r.RebalanceRateDuring > 0 {
		fmt.Printf("  throughput: %.0f puts/sec before, %.0f during the handoff (%.0f%% dip), %.0f after\n",
			r.RebalanceRateBefore, r.RebalanceRateDuring,
			100*(1-r.RebalanceRateDuring/r.RebalanceRateBefore), r.RebalanceRateAfter)
	}

	checked := 0
	for i, ok := range m.acked {
		if !ok {
			continue
		}
		checked++
		key, want := m.key(i)
		if v, found, err := t.admin.GetLinearizable(ctx, key); err != nil || !found || v != want {
			r.RebalanceLostKeys++
			continue
		}
		homes := 0
		for _, name := range t.kv.Shards() {
			resp, err := t.kv.ShardLog(name).Read(ctx, []byte(t.keyPrefix+key))
			if err != nil {
				return fmt.Errorf("audit read of %q on %s: %w", key, name, err)
			}
			_, found, err := rdmaagreement.DecodeKVResult(resp)
			if err != nil {
				return fmt.Errorf("audit read of %q on %s: %w", key, name, err)
			}
			if found {
				homes++
			}
		}
		switch {
		case homes == 0: // readable, yet in no machine: the probe missed it
			r.RebalanceLostKeys++
		case homes > 1:
			r.RebalanceForkedKeys++
		}
	}
	fmt.Printf("  audit: %d acked keys checked — %d lost, %d forked\n", checked, r.RebalanceLostKeys, r.RebalanceForkedKeys)
	return nil
}

// windowRates turns the sampler's cumulative counts into put rates for the
// spans before, during and after the handoff: mean rate over the fully-before
// and fully-after windows, MINIMUM windowed rate during (the dip is the
// point). Phases without a complete sampling window report 0.
func windowRates(samples []sample, from, to time.Time) (before, during, after float64) {
	var (
		beforeOps, afterOps int64
		beforeDur, afterDur time.Duration
		duringMin           = -1.0
	)
	for i := 1; i < len(samples); i++ {
		prev, cur := samples[i-1], samples[i]
		dt := cur.at.Sub(prev.at)
		if dt <= 0 {
			continue
		}
		rate := float64(cur.n-prev.n) / dt.Seconds()
		switch {
		case !cur.at.After(from):
			beforeOps += cur.n - prev.n
			beforeDur += dt
		case !prev.at.Before(to):
			afterOps += cur.n - prev.n
			afterDur += dt
		default:
			if duringMin < 0 || rate < duringMin {
				duringMin = rate
			}
		}
	}
	if beforeDur > 0 {
		before = float64(beforeOps) / beforeDur.Seconds()
	}
	if afterDur > 0 {
		after = float64(afterOps) / afterDur.Seconds()
	}
	if duringMin >= 0 {
		during = duringMin
	}
	return before, during, after
}

// fillObservability folds the store's slot-lifecycle metrics and the run's
// allocation deltas into the record and prints the stage breakdown. before /
// after bracket the put workload; ops normalizes the allocation deltas.
func fillObservability(r *throughputResult, m rdmaagreement.LogMetrics, before, after runtime.MemStats, ops int) {
	r.StageBatchWaitP50MS, r.StageBatchWaitP99MS = millis(m.BatchWait.P50), millis(m.BatchWait.P99)
	r.StageAgreementP50MS, r.StageAgreementP99MS = millis(m.Agreement.P50), millis(m.Agreement.P99)
	r.StageCommitWaitP50MS, r.StageCommitWaitP99MS = millis(m.CommitWait.P50), millis(m.CommitWait.P99)
	r.StageApplyP50MS, r.StageApplyP99MS = millis(m.Apply.P50), millis(m.Apply.P99)
	r.StageE2EP50MS, r.StageE2EP99MS = millis(m.EndToEnd.P50), millis(m.EndToEnd.P99)
	r.QueueDepthPeak = m.QueueDepth.Peak
	r.InflightSlotsPeak = m.InflightSlots.Peak
	r.ReorderDepthPeak = m.ReorderDepth.Peak
	r.BatchSizeMean = m.BatchSize.Mean
	r.BatchSizeP50, r.BatchSizeP99 = m.BatchSize.P50, m.BatchSize.P99
	if ops > 0 {
		r.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
		r.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
	}
	fmt.Printf("  stages (p50/p99): batch-wait %.3f/%.3fms, agreement %.3f/%.3fms, commit-wait %.3f/%.3fms, apply %.3f/%.3fms — e2e %.3f/%.3fms\n",
		r.StageBatchWaitP50MS, r.StageBatchWaitP99MS,
		r.StageAgreementP50MS, r.StageAgreementP99MS,
		r.StageCommitWaitP50MS, r.StageCommitWaitP99MS,
		r.StageApplyP50MS, r.StageApplyP99MS,
		r.StageE2EP50MS, r.StageE2EP99MS)
	fmt.Printf("  depth peaks: queue %d, inflight slots %d, reorder buffer %d; batch size mean %.1f (p50 %.0f / p99 %.0f); allocations %.0f/op (%.0f B/op)\n",
		r.QueueDepthPeak, r.InflightSlotsPeak, r.ReorderDepthPeak,
		r.BatchSizeMean, r.BatchSizeP50, r.BatchSizeP99, r.AllocsPerOp, r.BytesPerOp)
}

func pipelineLabel(pipeline int) string {
	if pipeline == 0 {
		return "default"
	}
	return strconv.Itoa(pipeline)
}

func leaseLabel(lease time.Duration) string {
	if lease <= 0 {
		return "off"
	}
	return lease.String()
}

// percentile returns the p-th percentile of sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
