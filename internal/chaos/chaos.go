package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdmaagreement"
	"rdmaagreement/client"
	"rdmaagreement/internal/linearize"
	"rdmaagreement/internal/netsim"
	"rdmaagreement/internal/wire"
	"rdmaagreement/kvserver"
)

// Config parameterizes one chaos schedule run. The zero value of every field
// gets a sensible default (see withDefaults); Seed is the only field that
// changes a run's identity.
type Config struct {
	// Seed determines the fault schedule and every client's operation
	// stream. Same Config (Seed included) ⇒ same schedule, byte for byte.
	Seed int64
	// Shards is the initial shard-group count. Default 2.
	Shards int
	// Clients is the number of concurrent workload clients. With Served,
	// every odd-indexed client drives the kvserver/client network path and
	// the rest stay in-process. Default 8.
	Clients int
	// Keys is the keyspace size; small keyspaces maximize contention and
	// checker leverage. Default 48.
	Keys int
	// Window is the workload-and-fault window per schedule. Default 3s.
	Window time.Duration
	// Events is the number of faults per schedule. Default 6.
	Events int
	// Latency is the simulated one-way memory/network latency. Default 1ms.
	Latency time.Duration
	// Lease is the leader-lease duration (0 disables leases and with them
	// the stall fault). Default 150ms.
	Lease time.Duration
	// Batch and Pipeline configure each shard's log; zero keeps the smr
	// defaults.
	Batch, Pipeline int
	// BatchBytes and BatchWait configure adaptive group commit per shard
	// log (see smr.Options); zero keeps the smr defaults. A small Batch
	// with a non-zero BatchWait drives every cut to the count budget, the
	// boundary the displacement path re-dispatches whole.
	BatchBytes int
	BatchWait  time.Duration
	// SnapshotInterval is each shard log's snapshot interval (see
	// smr.Options); zero keeps the smr default. A tiny interval snapshots
	// every few entries, so replica views that lag behind a memory crash or
	// a stall are restored from snapshots, not replayed.
	SnapshotInterval int
	// PutPercent is the write share of the workload. Default 50.
	PutPercent int
	// Faults enables a subset of AllFaults; nil enables all.
	Faults []string
	// Served also routes half the clients through a loopback kvserver and
	// the ring-aware client package, so the recorded history spans both the
	// in-process and the served data path.
	Served bool
	// Out receives the schedule and progress lines; nil discards them.
	Out io.Writer
}

func (cfg Config) withDefaults() Config {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 48
	}
	if cfg.Window <= 0 {
		cfg.Window = 3 * time.Second
	}
	if cfg.Events <= 0 {
		cfg.Events = 6
	}
	if cfg.Latency <= 0 {
		cfg.Latency = time.Millisecond
	}
	if cfg.Lease == 0 {
		cfg.Lease = 150 * time.Millisecond
	} else if cfg.Lease < 0 {
		cfg.Lease = 0
	}
	if cfg.PutPercent <= 0 || cfg.PutPercent > 100 {
		cfg.PutPercent = 50
	}
	return cfg
}

// ReproLine is the one-line command that replays this exact schedule: commit
// it (or its seed) as a regression test when a run fails.
func (cfg Config) ReproLine() string {
	cfg = cfg.withDefaults()
	line := fmt.Sprintf("go run ./cmd/agreementchaos -seed %d -shards %d -clients %d -keys %d -events %d -window %s -latency %s -lease %s",
		cfg.Seed, cfg.Shards, cfg.Clients, cfg.Keys, cfg.Events, cfg.Window, cfg.Latency, cfg.Lease)
	if cfg.Batch != 0 {
		line += fmt.Sprintf(" -batch %d", cfg.Batch)
	}
	if cfg.BatchWait != 0 {
		line += fmt.Sprintf(" -batch-wait %s", cfg.BatchWait)
	}
	if cfg.PutPercent != 50 {
		line += fmt.Sprintf(" -put-percent %d", cfg.PutPercent)
	}
	if cfg.SnapshotInterval != 0 {
		line += fmt.Sprintf(" -snap-interval %d", cfg.SnapshotInterval)
	}
	if len(cfg.Faults) > 0 {
		line += " -faults " + strings.Join(cfg.Faults, ",")
	}
	if cfg.Served {
		line += " -net"
	}
	return line
}

// Result is the outcome of one schedule run.
type Result struct {
	Config   Config
	Schedule Schedule
	// Ops counts the operations in the checked history (acknowledged puts,
	// linearizable gets, ambiguous puts, and the final audit reads).
	Ops int
	// Puts/Gets split Ops by kind (audit reads count as Gets).
	Puts, Gets int
	// Dropped counts operations that failed with a provably-did-not-commit
	// error (lease lost, key moved, shed): excluded from the history.
	Dropped int
	// Unknown counts ambiguous puts kept in the history with open effect
	// windows (the connection died with the command possibly in flight).
	Unknown int
	// Faults tallies the faults actually injected, per kind.
	Faults map[string]int
	// Takeovers sums the lease takeovers the initial shards observed.
	Takeovers uint64
	// Restores sums how often a replica view of the initial shards fell
	// behind a truncation and was restored from a snapshot.
	Restores int
	// CheckDuration is the wall-clock cost of the linearizability check.
	CheckDuration time.Duration
	// Linearizable is the verdict; Violations holds the refuted keys.
	Linearizable bool
	Violations   []linearize.Violation
}

// Run executes one seeded schedule end to end: build the store (and, with
// cfg.Served, the loopback kvserver plus network clients), drive the
// workload while injecting the schedule's faults, heal everything, audit
// every key with a final linearizable read, and check the recorded history.
// A non-nil error means the run itself broke (infrastructure, not safety);
// a false Result.Linearizable means the store broke its contract.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	for _, k := range cfg.Faults {
		valid := false
		for _, known := range AllFaults {
			if k == known {
				valid = true
				break
			}
		}
		if !valid {
			return Result{Config: cfg}, fmt.Errorf("chaos: unknown fault kind %q (have %s)", k, strings.Join(AllFaults, ", "))
		}
	}
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	sched := Build(cfg)
	fmt.Fprint(out, sched.String())

	res := Result{Config: cfg, Schedule: sched, Faults: make(map[string]int)}

	kv, err := rdmaagreement.NewShardedKV(rdmaagreement.ShardedKVOptions{
		Shards: cfg.Shards,
		Log: rdmaagreement.LogOptions{
			Cluster: rdmaagreement.Options{
				Processes:     3,
				Memories:      3,
				MemoryLatency: cfg.Latency,
				LeaseDuration: cfg.Lease,
			},
			MaxBatch:         cfg.Batch,
			BatchBytes:       cfg.BatchBytes,
			BatchWait:        cfg.BatchWait,
			Pipeline:         cfg.Pipeline,
			SnapshotInterval: cfg.SnapshotInterval,
		},
	})
	if err != nil {
		return res, fmt.Errorf("chaos: build store: %w", err)
	}
	defer kv.Close()

	r := &runner{cfg: cfg, kv: kv, out: out, start: time.Now()}

	if cfg.Served {
		if err := r.startServer(); err != nil {
			return res, err
		}
		defer r.stopServer()
	}

	// Workload: issue until the window closes; a short grace later, cancel
	// whatever is still in flight (those puts land in the history with open
	// effect windows — exactly what Unknown models).
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	stop := make(chan struct{})
	histories := make([][]linearize.Op, cfg.Clients)
	var workers sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		workers.Add(1)
		go func(id int) {
			defer workers.Done()
			histories[id] = r.workload(runCtx, id, stop)
		}(c)
	}

	// Fault injection: every event on its own timer; rebalances serialized
	// through one queue so concurrent different rebalances never collide
	// with ErrRebalanceInProgress.
	var faults sync.WaitGroup
	faultErr := make(chan error, len(sched.Events))
	var rebalances []Event
	for _, ev := range sched.Events {
		if ev.Kind == KindRebalance {
			rebalances = append(rebalances, ev)
			continue
		}
		faults.Add(1)
		go func(ev Event) {
			defer faults.Done()
			r.inject(ev)
		}(ev)
	}
	if len(rebalances) > 0 {
		faults.Add(1)
		go func() {
			defer faults.Done()
			for _, ev := range rebalances {
				if err := r.rebalance(ev); err != nil {
					faultErr <- err
					return
				}
			}
		}()
	}

	time.Sleep(time.Until(r.start.Add(cfg.Window)))
	close(stop)
	graceTimer := time.AfterFunc(2*time.Second, cancelRun)
	workers.Wait()
	graceTimer.Stop()
	faults.Wait()
	close(faultErr)
	if err := <-faultErr; err != nil {
		return res, err
	}

	// Heal everything the schedule touched (belt and braces on top of each
	// event's own undo), then settle for a couple of lease periods so the
	// audit runs against a quiet store.
	r.healAll()
	if cfg.Lease > 0 {
		time.Sleep(2 * cfg.Lease)
	}

	audit, err := r.audit()
	if err != nil {
		return res, err
	}

	history := append([]linearize.Op(nil), audit...)
	for _, h := range histories {
		history = append(history, h...)
	}

	checkStart := time.Now()
	verdict := linearize.Check(history)
	res.CheckDuration = time.Since(checkStart)
	res.Ops = verdict.Ops
	res.Puts = int(r.puts.Load())
	res.Gets = int(r.gets.Load()) + len(audit)
	res.Dropped = int(r.dropped.Load())
	res.Unknown = int(r.unknown.Load())
	res.Linearizable = verdict.Ok
	res.Violations = verdict.Violations
	r.mu.Lock()
	for k, v := range r.faults {
		res.Faults[k] = v
	}
	r.mu.Unlock()
	for i := 0; i < cfg.Shards; i++ {
		if lg := kv.ShardLog(fmt.Sprintf("shard-%d", i)); lg != nil {
			res.Takeovers += lg.Stats().Takeovers
			for _, p := range lg.Cluster().Procs {
				res.Restores += lg.Restores(p)
			}
		}
	}
	fmt.Fprintf(out, "seed=%d ops=%d (puts=%d gets=%d unknown=%d dropped=%d) faults=%d takeovers=%d restores=%d check=%s linearizable=%v\n",
		cfg.Seed, res.Ops, res.Puts, res.Gets, res.Unknown, res.Dropped, len(sched.Events), res.Takeovers, res.Restores, res.CheckDuration.Round(time.Microsecond), res.Linearizable)
	return res, nil
}

// runner carries one schedule run's live state.
type runner struct {
	cfg   Config
	kv    *rdmaagreement.ShardedKV
	out   io.Writer
	start time.Time

	srv      *kvserver.Server
	ln       net.Listener
	srvDone  chan error
	base     string
	netConns []*client.Client

	puts, gets, dropped, unknown atomic.Int64

	mu     sync.Mutex
	faults map[string]int
}

func (r *runner) since() int64 { return int64(time.Since(r.start)) }

func (r *runner) countFault(kind string) {
	r.mu.Lock()
	if r.faults == nil {
		r.faults = make(map[string]int)
	}
	r.faults[kind]++
	r.mu.Unlock()
}

// startServer brings the served path up on loopback: one kvserver over the
// store plus one network client per odd-indexed workload client.
func (r *runner) startServer() error {
	srv, err := kvserver.New(kvserver.Options{Store: r.kv})
	if err != nil {
		return fmt.Errorf("chaos: build kvserver: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("chaos: listen: %w", err)
	}
	r.srv, r.ln = srv, ln
	r.base = "http://" + ln.Addr().String()
	r.srvDone = make(chan error, 1)
	go func() { r.srvDone <- srv.Serve(ln) }()
	r.netConns = make([]*client.Client, r.cfg.Clients)
	for c := 1; c < r.cfg.Clients; c += 2 {
		cl, err := client.New(client.Options{Endpoints: []string{r.base}})
		if err != nil {
			return fmt.Errorf("chaos: build client: %w", err)
		}
		r.netConns[c] = cl
	}
	return nil
}

func (r *runner) stopServer() {
	for _, cl := range r.netConns {
		if cl != nil {
			cl.Close()
		}
	}
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = r.srv.Shutdown(ctx)
		cancel()
		<-r.srvDone
	}
}

// storeKey maps a logical workload key to the key the embedded store sees.
// The serving layer namespaces every request under a tenant (the default one
// when the client sends none), so in served runs the in-process clients and
// the audit must address the same tenant-prefixed register the network
// clients write — otherwise the two paths operate on disjoint keys and the
// merged history flip-flops on every key.
func (r *runner) storeKey(key string) string {
	if r.cfg.Served {
		return wire.TenantKey("", key)
	}
	return key
}

// workload is one client's closed loop: pick a key, flip a seeded coin
// between put and linearizable get, record the outcome. Every put value is
// globally unique ("c<client>-<seq>"), so if a provably-did-not-commit error
// lied and the command did commit, some read observes a value with no
// matching put in the history and the checker refutes it.
func (r *runner) workload(ctx context.Context, id int, stop <-chan struct{}) []linearize.Op {
	rng := rand.New(rand.NewSource(int64(splitmix64(uint64(r.cfg.Seed) + uint64(id)))))
	opTimeout := 4 * time.Second
	var ops []linearize.Op
	seq := 0
	served := r.cfg.Served && id%2 == 1
	for {
		select {
		case <-stop:
			return ops
		default:
		}
		key := fmt.Sprintf("k%03d", rng.Intn(r.cfg.Keys))
		opCtx, cancel := context.WithTimeout(ctx, opTimeout)
		if rng.Intn(100) < r.cfg.PutPercent {
			seq++
			value := fmt.Sprintf("c%d-%d", id, seq)
			invoke := r.since()
			var err error
			if served {
				_, _, err = r.netConns[id].Put(opCtx, key, value)
			} else {
				_, _, err = r.kv.Put(opCtx, r.storeKey(key), value)
			}
			ret := r.since()
			cancel()
			op := linearize.Op{Client: id, Kind: linearize.Put, Key: key, Input: value, Invoke: invoke, Return: ret}
			switch classify(err) {
			case committed:
				r.puts.Add(1)
				ops = append(ops, op)
			case dropped:
				r.dropped.Add(1)
			case unknown:
				op.Unknown, op.Return = true, -1
				r.unknown.Add(1)
				ops = append(ops, op)
			}
		} else {
			invoke := r.since()
			var (
				v     string
				found bool
				err   error
			)
			if served {
				v, found, err = r.netConns[id].GetLinearizable(opCtx, key)
			} else {
				v, found, err = r.kv.GetLinearizable(opCtx, r.storeKey(key))
			}
			ret := r.since()
			cancel()
			if err != nil {
				r.dropped.Add(1) // a failed read observed nothing
				continue
			}
			r.gets.Add(1)
			ops = append(ops, linearize.Op{Client: id, Kind: linearize.Get, Key: key, Output: v, Found: found, Invoke: invoke, Return: ret})
		}
	}
}

type outcome int

const (
	committed outcome = iota
	dropped
	unknown
)

// classify sorts a put error into the checker's taxonomy. Lease-lost,
// key-moved and shed errors carry the store's provably-did-not-commit
// contract (in-process and over the wire alike), so those operations are
// excluded; anything else — a deadline, a dead connection, a halted log —
// may have committed and stays in the history with an open effect window.
func classify(err error) outcome {
	switch {
	case err == nil:
		return committed
	case errors.Is(err, rdmaagreement.ErrLeaseLost),
		errors.Is(err, rdmaagreement.ErrKeyMoved),
		errors.Is(err, rdmaagreement.ErrRebalanceInProgress),
		errors.Is(err, client.ErrOverloaded),
		errors.Is(err, client.ErrDraining):
		return dropped
	default:
		return unknown
	}
}

// inject applies one non-rebalance event at its scheduled time and undoes it
// after its window.
func (r *runner) inject(ev Event) {
	time.Sleep(time.Until(r.start.Add(ev.At)))
	lg := r.kv.ShardLog(ev.Shard)
	if lg == nil {
		return // shard retired mid-schedule; nothing to fault
	}
	cl := lg.Cluster()
	switch ev.Kind {
	case KindMemCrash:
		ids := cl.CrashMemories(ev.N)
		r.countFault(ev.Kind)
		fmt.Fprintf(r.out, "  +%-8s %s %s: crashed memories %v\n", ev.At.Round(time.Millisecond), ev.Kind, ev.Shard, ids)
		time.Sleep(ev.Dur)
		cl.ReviveMemories()
	case KindStall:
		p := cl.LeaseHolder()
		cl.CrashProcess(p)
		r.countFault(ev.Kind)
		fmt.Fprintf(r.out, "  +%-8s %s %s: stalled lease holder %v\n", ev.At.Round(time.Millisecond), ev.Kind, ev.Shard, p)
		time.Sleep(ev.Dur)
		cl.ReviveProcess(p)
	case KindJitter:
		seed := splitmix64(uint64(r.cfg.Seed)) ^ uint64(ev.Index)<<32
		capUS := uint64(ev.N)
		cl.Network.SetJitter(func(m netsim.Message) time.Duration {
			return time.Duration(splitmix64(m.Seq^seed)%capUS) * time.Microsecond
		})
		r.countFault(ev.Kind)
		fmt.Fprintf(r.out, "  +%-8s %s %s: +[0,%dµs) per message\n", ev.At.Round(time.Millisecond), ev.Kind, ev.Shard, ev.N)
		time.Sleep(ev.Dur)
		cl.Network.SetJitter(nil)
	case KindTransfer:
		cur := cl.LeaseHolder()
		next := cl.Procs[0]
		for i, p := range cl.Procs {
			if p == cur {
				next = cl.Procs[(i+1)%len(cl.Procs)]
				break
			}
		}
		cl.SetLeader(next)
		r.countFault(ev.Kind)
		fmt.Fprintf(r.out, "  +%-8s %s %s: lease %v -> %v\n", ev.At.Round(time.Millisecond), ev.Kind, ev.Shard, cur, next)
	}
}

// rebalance runs one interrupted-then-resumed AddShard and the matching
// RemoveShard. The first attempt is cancelled mid-handoff (after roughly a
// third of the event window); the retry must resume from the committed
// migration state and complete — PR 5's resume semantics under fire.
func (r *runner) rebalance(ev Event) error {
	time.Sleep(time.Until(r.start.Add(ev.At)))
	// Cancel the first attempt fast enough to land mid-handoff (a handoff at
	// millisecond latency takes a few tens of milliseconds), but long enough
	// that it usually started one.
	interrupt := ev.Dur / 20
	if interrupt < 5*time.Millisecond {
		interrupt = 5 * time.Millisecond
	} else if interrupt > 30*time.Millisecond {
		interrupt = 30 * time.Millisecond
	}
	r.countFault(ev.Kind)
	phases := []struct {
		name string
		op   func(context.Context, string) error
	}{
		{"add", r.kv.AddShard},
		{"remove", r.kv.RemoveShard},
	}
	for _, ph := range phases {
		phase, op := ph.name, ph.op
		ictx, cancel := context.WithTimeout(context.Background(), interrupt)
		err := op(ictx, ev.Shard)
		cancel()
		interrupted := err != nil
		if interrupted {
			// Resume to completion: same shard name, fresh context. The
			// deadline is generous because stalls and crashes may be in
			// force concurrently.
			rctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			for {
				if err = op(rctx, ev.Shard); err == nil {
					break
				}
				if rctx.Err() != nil {
					cancel()
					return fmt.Errorf("chaos: %s shard %s never completed: %w", phase, ev.Shard, err)
				}
				time.Sleep(20 * time.Millisecond)
			}
			cancel()
		}
		state := "completed uninterrupted"
		if interrupted {
			state = "interrupted, resumed to completion"
		}
		fmt.Fprintf(r.out, "  +%-8s rebalance %s %s (%s)\n", ev.At.Round(time.Millisecond), phase, ev.Shard, state)
	}
	return nil
}

// healAll clears any fault residue across every live shard: jitter off,
// memories revived, processes revived, partitions healed. Events undo their
// own faults, but a schedule interleaving several faults on one shard can
// revive early-crashed state in a different order; the audit must start from
// a provably healthy store either way.
func (r *runner) healAll() {
	for _, name := range r.kv.Shards() {
		lg := r.kv.ShardLog(name)
		if lg == nil {
			continue
		}
		cl := lg.Cluster()
		cl.Network.SetJitter(nil)
		cl.Network.Heal()
		cl.ReviveMemories()
		for _, p := range cl.Procs {
			if cl.Network.ProcessCrashed(p) {
				cl.ReviveProcess(p)
			}
		}
	}
}

// audit closes the history with one linearizable read of every key in the
// keyspace — the generalization of the rebalance bench's lost/forked scan:
// an acknowledged write that silently vanished (or forked) surfaces here as
// a read the checker cannot explain.
func (r *runner) audit() ([]linearize.Op, error) {
	ops := make([]linearize.Op, 0, r.cfg.Keys)
	for k := 0; k < r.cfg.Keys; k++ {
		key := fmt.Sprintf("k%03d", k)
		var lastErr error
		for attempt := 0; attempt < 3; attempt++ {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			invoke := r.since()
			v, found, err := r.kv.GetLinearizable(ctx, r.storeKey(key))
			ret := r.since()
			cancel()
			if err == nil {
				ops = append(ops, linearize.Op{Client: -1, Kind: linearize.Get, Key: key, Output: v, Found: found, Invoke: invoke, Return: ret})
				lastErr = nil
				break
			}
			lastErr = err
			time.Sleep(50 * time.Millisecond)
		}
		if lastErr != nil {
			return nil, fmt.Errorf("chaos: audit read %q on healed store: %w", key, lastErr)
		}
	}
	return ops, nil
}
