package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rdmaagreement"
)

// A measured run builds the deployment again and again, at least
// minSetups and at most maxSetups times, until setupTime has passed.
// setup_s is their time at zero steal, and the last one built carries the
// traffic.
const (
	minSetups = 15
	maxSetups = 200
	setupTime = 2 * time.Second
)

// runTimeout bounds every op of a run, so a wedged store fails ops instead
// of hanging the driver.
const runTimeout = 150 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were added, for printing.
type metricSet struct {
	names   []string
	values  map[string]metric
	samples map[string]int
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]metric{}, samples: map[string]int{}}
}

func (m *metricSet) add(name string, value float64, unit string) {
	m.names = append(m.names, name)
	m.values[name] = metric{Value: value, Unit: unit}
}

// slicePoints times each slice of ps with f and pairs the value with the
// host's steal over the slice. f returns NaN for a slice it cannot time.
func slicePoints(ps []loopResult, h hostTrace, f func(loopResult) float64) []point {
	out := make([]point, len(ps))
	for i, p := range ps {
		out[i] = point{value: f(p), steal: h.steal(p.start, p.start.Add(p.elapsed)), t: float64(i)}
	}
	return out
}

// rateAtZeroSteal is the op rate of the slices ps at zero steal.
func rateAtZeroSteal(ps []loopResult, h hostTrace) float64 {
	return atZeroSteal(slicePoints(ps, h, loopResult.rate))
}

// addLatency adds the q-quantile of the latencies of kind, per slice of ps
// and at zero steal, with the number of exact per-op samples behind it.
func (m *metricSet) addLatency(name string, ps []loopResult, h hostTrace, kind opKind, q float64) {
	n := 0
	for _, p := range ps {
		n += len(p.ops[kind])
	}
	m.add(name, atZeroSteal(slicePoints(ps, h, func(p loopResult) float64 {
		if len(p.ops[kind]) == 0 {
			return math.NaN()
		}
		return quantile(p.latencies(kind), q)
	})), "ms")
	m.samples[name] = n
}

// quantile is the nearest-rank q-quantile of lat, in milliseconds; it sorts
// lat in place.
func quantile(lat []time.Duration, q float64) float64 {
	slices.Sort(lat)
	i := int(math.Ceil(q*float64(len(lat)))) - 1
	return ms(lat[max(i, 0)])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// outcome is what one invocation measured and checked.
type outcome struct {
	metrics    *metricSet
	attempted  int64
	failed     int64
	mismatched int64
	firstErr   error
	// steal is the host's steal share over the measured window (from the
	// first pass's window to the second's in a traced run), and seenRate
	// the (first) window's op rate as measured, before the zero-steal fit.
	steal, seenRate float64
}

// pass is one drive of the workload on a deployment: the measured window,
// then the read-back and cross-path checks, with the program's counters
// read at each boundary (at[0] before the window … at[3] after the checks).
type pass struct {
	win, readBack, cross loopResult
	at                   [4]counters
}

func drive(ctx context.Context, st *state, d *deployment, seconds int) pass {
	var p pass
	runtime.GC()
	p.at[0] = readCounters(d.kv)
	p.win = st.window(ctx, d, seconds)
	p.at[1] = readCounters(d.kv)
	p.readBack = st.readBack(ctx, d, seconds)
	p.at[2] = readCounters(d.kv)
	p.cross = st.crossPath(ctx, d)
	p.at[3] = readCounters(d.kv)
	return p
}

// latencyParts are the slices of the pass that put and get latencies are
// taken from. Workloads without gets in the window time the read-back's
// gets.
func (p pass) latencyParts() (puts, gets []loopResult) {
	puts = p.win.slices()
	gets = puts
	if len(p.win.ops[opGet]) == 0 {
		gets = p.readBack.slices()
	}
	return puts, gets
}

func (p pass) ops() float64 {
	return float64(p.win.attempted + p.readBack.attempted + p.cross.attempted)
}

func (o *outcome) count(p pass) {
	for _, r := range []loopResult{p.win, p.readBack, p.cross} {
		o.attempted += r.attempted
		o.failed += r.failed
		o.mismatched += r.mismatched
		if o.firstErr == nil {
			o.firstErr = r.firstErr
		}
	}
}

// runMeasured is the untraced run: it sets up repeatedly, drives the last
// deployment, and returns the end-to-end metrics.
func runMeasured(w workload, seed int64, seconds int, corrupt bool) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	hs := startSampler()
	defer hs.finish()
	var setups []loopResult
	var d *deployment
	var st *state
	for began := time.Now(); len(setups) < minSetups || len(setups) < maxSetups && time.Since(began) < setupTime; {
		if d != nil {
			d.close()
			// Collect the closed deployment, so the set-ups' garbage
			// does not set the peak resident memory.
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if d, st, err = setUp(ctx, w, seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, loopResult{start: t0, elapsed: time.Since(t0)})
	}
	defer d.close()
	st.corruptReadback = corrupt
	p := drive(ctx, st, d, seconds)
	h := hs.finish()

	o := &outcome{metrics: newMetricSet()}
	o.count(p)
	o.steal = h.steal(p.win.start, p.win.start.Add(p.win.elapsed))
	o.seenRate = p.win.rate()
	m := o.metrics
	puts, gets := p.latencyParts()
	m.add("ops_per_s", rateAtZeroSteal(puts, h), "1/s")
	m.addLatency("put_p50_ms", puts, h, opPut, 0.50)
	m.addLatency("get_p50_ms", gets, h, opGet, 0.50)
	m.add("cpu_us_per_op", atZeroSteal(slicePoints(puts, h, func(p loopResult) float64 {
		return h.cpu(p.start, p.start.Add(p.elapsed)).Seconds() * 1e6 / float64(p.completed())
	})), "us")
	m.add("peak_rss_mb", peakRSSMB(), "MB")
	m.add("setup_s", atZeroSteal(slicePoints(setups, h, func(p loopResult) float64 {
		return p.elapsed.Seconds()
	})), "s")
	return o, nil
}

// setUp builds the deployment and preloads the key space: everything the
// setup_s metric times.
func setUp(ctx context.Context, w workload, seed int64, tr *tracer) (*deployment, *state, error) {
	d, err := deploy(ctx, w, tr)
	if err != nil {
		return nil, nil, err
	}
	st := newState(w, seed)
	if err := st.preload(ctx, d); err != nil {
		d.close()
		return nil, nil, err
	}
	return d, st, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// runTraced is the traced run. It drives the workload twice, each time on
// a fresh deployment: untraced first, for the trace-overhead baseline and
// the Go runtime's counters (so the tracer's own allocations are not
// counted), then traced, for the spans and the program's counters.
func runTraced(w workload, seed int64, seconds int, spansPath string) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	o := &outcome{metrics: newMetricSet()}
	hs := startSampler()
	defer hs.finish()

	d, st, err := setUp(ctx, w, seed, nil)
	if err != nil {
		return nil, err
	}
	base := drive(ctx, st, d, seconds)
	d.close()
	o.count(base)

	tr, err := newTracer()
	if err != nil {
		return nil, err
	}
	defer tr.release()
	if d, st, err = setUp(ctx, w, seed, tr); err != nil {
		return nil, err
	}
	defer d.close()
	p := drive(ctx, st, d, seconds)
	o.count(p)
	c0, c1 := p.at[0], p.at[3]
	h := hs.finish()
	o.steal = h.steal(base.win.start, p.win.start.Add(p.win.elapsed))
	o.seenRate = base.win.rate()

	m := o.metrics
	baseRate := rateAtZeroSteal(base.win.slices(), h)
	m.add("driver.trace_overhead_frac", (baseRate-rateAtZeroSteal(p.win.slices(), h))/baseRate, "frac")
	m.add("driver.host_steal_frac", o.steal, "frac")
	// The tails are too noisy on a shared VM to gate as end-to-end metrics;
	// the untraced pass reports them here.
	puts, gets := base.latencyParts()
	m.addLatency("driver.put_p99_ms", puts, h, opPut, 0.99)
	m.addLatency("driver.get_p99_ms", gets, h, opGet, 0.99)

	lt := tr.summarize()
	clientOps := lt.count[layerClientPut] + lt.count[layerClientGet]
	m.add("client.attempt_mean_ms", ms(lt.mean[layerAttempt]), "ms")
	m.add("client.wire_self_mean_ms", ms(lt.wireSelf), "ms")
	m.add("client.retries_per_op", ratio(float64(lt.count[layerAttempt]-clientOps), float64(clientOps)), "count")
	m.add("kvserver.handler_put_mean_ms", ms(lt.mean[layerHandlerPut]), "ms")
	m.add("kvserver.handler_get_mean_ms", ms(lt.mean[layerHandlerGet]), "ms")
	m.add("kvserver.shed_per_op", ratio(float64(c1.shed-c0.shed), float64(clientOps)), "count")

	// In-process puts happen in the window, or in the cross-path check on
	// served-mixed; kv self time subtracts the smr mean of the same phase.
	kvPhase := [2]counters{p.at[0], p.at[1]}
	if w.served {
		kvPhase = [2]counters{p.at[2], p.at[3]}
	}
	m.add("kv.put_mean_ms", ms(lt.mean[layerKVPut]), "ms")
	m.add("kv.self_mean_ms", ms(lt.mean[layerKVPut])-stageMean(kvPhase[0].smr.EndToEnd, kvPhase[1].smr.EndToEnd), "ms")
	sm0, sm1 := c0.smr, c1.smr
	slots := float64(sm1.Slots - sm0.Slots)
	m.add("smr.batch_wait_mean_ms", stageMean(sm0.BatchWait, sm1.BatchWait), "ms")
	m.add("smr.cmds_per_slot", ratio(float64(sm1.Committed-sm0.Committed), slots), "count")
	m.add("smr.inflight_slots_peak", float64(sm1.InflightSlots.Peak), "count")
	m.add("smr.queue_depth_peak", float64(sm1.QueueDepth.Peak), "count")
	m.add("smr.agreement_mean_ms", stageMean(sm0.Agreement, sm1.Agreement), "ms")
	m.add("smr.commit_wait_mean_ms", stageMean(sm0.CommitWait, sm1.CommitWait), "ms")
	m.add("smr.commit_wait_max_ms", ms(sm1.CommitWait.Max), "ms")
	m.add("smr.apply_mean_ms", stageMean(sm0.Apply, sm1.Apply), "ms")
	m.add("smr.snapshots", float64(c1.snapshots-c0.snapshots), "count")
	m.add("smr.e2e_mean_ms", stageMean(sm0.EndToEnd, sm1.EndToEnd), "ms")
	leaseReads := float64(c1.stats.LeaseReads - c0.stats.LeaseReads)
	m.add("smr.lease_read_frac", ratio(leaseReads, leaseReads+float64(c1.stats.BarrierReads-c0.stats.BarrierReads)), "frac")
	m.add("smr.recovered_slots", float64(c1.stats.Recovered-c0.stats.Recovered), "count")

	m.add("core.peak_instances", float64(c1.peakInstances), "count")
	m.add("core.live_regions", float64(c1.liveRegions), "count")
	m.add("memsim.writes_per_slot", ratio(float64(c1.writes-c0.writes), slots), "count")
	m.add("memsim.reads_per_slot", ratio(float64(c1.reads-c0.reads), slots), "count")
	m.add("memsim.perm_changes_per_slot", ratio(float64(c1.permChanges-c0.permChanges), slots), "count")
	m.add("memsim.naks_per_slot", ratio(float64(c1.naks-c0.naks), slots), "count")
	m.add("netsim.msgs_per_slot", ratio(float64(c1.sent-c0.sent), slots), "count")

	g0, g1 := base.at[0].goRuntime, base.at[3].goRuntime
	baseOps := base.ops()
	m.add("go.allocs_per_op", ratio(g1[rtAllocs]-g0[rtAllocs], baseOps), "count")
	m.add("go.bytes_per_op", ratio(g1[rtBytes]-g0[rtBytes], baseOps), "B")
	busy := (g1[rtCPUTotal] - g0[rtCPUTotal]) - (g1[rtCPUIdle] - g0[rtCPUIdle])
	m.add("go.gc_cpu_frac", ratio(g1[rtCPUGC]-g0[rtCPUGC], busy), "frac")
	m.add("go.gc_cycles_per_kop", ratio(1000*(g1[rtGCCycles]-g0[rtGCCycles]), baseOps), "count")
	m.add("driver.spans_dropped", float64(tr.dropped), "count")

	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return o, nil
}

// ratio is a/b, and 0 when b is 0 (nothing to divide among).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stageMean is the exact mean, in ms, of the stage observations recorded
// between two registry snapshots: the histograms' exact sums (count × mean)
// are differenced, never their bucketed percentiles.
func stageMean(before, after rdmaagreement.StageLatency) float64 {
	n := after.Count - before.Count
	if n == 0 {
		return 0
	}
	sum := float64(after.Mean)*float64(after.Count) - float64(before.Mean)*float64(before.Count)
	return sum / float64(n) / float64(time.Millisecond)
}

// counters are the counters the program already keeps, summed over shards.
type counters struct {
	smr                              rdmaagreement.LogMetrics
	stats                            rdmaagreement.ShardedStats
	snapshots                        int
	peakInstances, liveRegions       int
	reads, writes, permChanges, naks int64
	sent                             int64
	shed                             uint64
	goRuntime                        [len(rtNames)]float64
}

const (
	rtAllocs = iota
	rtBytes
	rtCPUTotal
	rtCPUIdle
	rtCPUGC
	rtGCCycles
)

var rtNames = [...]string{
	rtAllocs:   "/gc/heap/allocs:objects",
	rtBytes:    "/gc/heap/allocs:bytes",
	rtCPUTotal: "/cpu/classes/total:cpu-seconds",
	rtCPUIdle:  "/cpu/classes/idle:cpu-seconds",
	rtCPUGC:    "/cpu/classes/gc/total:cpu-seconds",
	rtGCCycles: "/gc/cycles/total:gc-cycles",
}

func readCounters(kv *rdmaagreement.ShardedKV) counters {
	c := counters{smr: kv.Metrics(), stats: kv.Stats()}
	for _, name := range kv.Shards() {
		l := kv.ShardLog(name)
		c.snapshots += l.Snapshots()
		cl := l.Cluster()
		c.peakInstances += cl.PeakInstances()
		c.liveRegions += cl.LiveRegions()
		ops := cl.Pool.TotalOps()
		c.reads += ops.Reads
		c.writes += ops.Writes
		c.permChanges += ops.PermChanges
		c.naks += ops.Naks
		c.sent += cl.Network.Counters().Snapshot().Sent
	}
	reg := kv.Registry()
	for _, name := range []string{"server_shed_overloaded", "server_shed_conn_busy", "server_shed_draining"} {
		c.shed += reg.Counter(name).Load()
	}
	c.goRuntime = readRuntime()
	return c
}

// readRuntime reads the Go runtime's counters named in rtNames.
func readRuntime() [len(rtNames)]float64 {
	var out [len(rtNames)]float64
	samples := make([]metrics.Sample, len(rtNames))
	for i, name := range rtNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}
