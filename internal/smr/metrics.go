package smr

import (
	"time"

	"rdmaagreement/internal/metrics"
	"rdmaagreement/internal/trace"
	"rdmaagreement/internal/types"
)

// Metric names the committer records under. They are package-level constants
// so external aggregators (the sharded layer, the bench harness, a scrape of
// Registry.WriteText) address the same series the committer writes.
const (
	// Counters.
	metricEnqueued  = "smr_enqueued_total"  // commands accepted by enqueue
	metricBatches   = "smr_batches_total"   // batches dispatched to slot workers (incl. re-dispatches)
	metricSlots     = "smr_slots_total"     // slots applied in order
	metricCommitted = "smr_committed_total" // committed commands (own and foreign)

	// Gauges.
	metricQueueDepth = "smr_queue_depth"    // commands+barriers waiting for dispatch
	metricInflight   = "smr_inflight_slots" // slots being agreed concurrently
	metricReorder    = "smr_reorder_depth"  // decided slots waiting for a predecessor

	// Per-stage latency histograms of the slot lifecycle.
	metricBatchWait  = "smr_batch_wait_seconds"  // command: enqueue → dispatch
	metricAgreement  = "smr_agreement_seconds"   // slot: dispatch → decided
	metricCommitWait = "smr_commit_wait_seconds" // slot: decided → applier pickup
	metricApply      = "smr_apply_seconds"       // slot: record + apply + resolve
	metricEndToEnd   = "smr_e2e_seconds"         // command: enqueue → waiter resolved

	// Unit-valued histogram: commands per cut batch, recorded as 1ns units
	// on power-of-two bounds. How adaptive group commit tracks offered load.
	metricBatchSize = "smr_batch_size"
)

// batchSizeBounds buckets the chosen batch sizes at powers of two through
// MaxBatch's plausible range: 1, 2, 4, … 4096 commands.
var batchSizeBounds = func() []time.Duration {
	var b []time.Duration
	for v := time.Duration(1); v <= 4096; v *= 2 {
		b = append(b, v)
	}
	return b
}()

// logMetrics holds the committer's pre-resolved instrument handles: the hot
// path records through these pointers and never touches the registry's map.
type logMetrics struct {
	reg *metrics.Registry

	enqueued  *metrics.Counter
	batches   *metrics.Counter
	slots     *metrics.Counter
	committed *metrics.Counter

	queueDepth *metrics.Gauge
	inflight   *metrics.Gauge
	reorder    *metrics.Gauge

	batchWait  *metrics.Histogram
	agreement  *metrics.Histogram
	commitWait *metrics.Histogram
	apply      *metrics.Histogram
	e2e        *metrics.Histogram
	batchSize  *metrics.Histogram
}

func newLogMetrics(reg *metrics.Registry) *logMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &logMetrics{
		reg:        reg,
		enqueued:   reg.Counter(metricEnqueued),
		batches:    reg.Counter(metricBatches),
		slots:      reg.Counter(metricSlots),
		committed:  reg.Counter(metricCommitted),
		queueDepth: reg.Gauge(metricQueueDepth),
		inflight:   reg.Gauge(metricInflight),
		reorder:    reg.Gauge(metricReorder),
		batchWait:  reg.Histogram(metricBatchWait),
		agreement:  reg.Histogram(metricAgreement),
		commitWait: reg.Histogram(metricCommitWait),
		apply:      reg.Histogram(metricApply),
		e2e:        reg.Histogram(metricEndToEnd),
		batchSize:  reg.HistogramWith(metricBatchSize, batchSizeBounds),
	}
}

// StageLatency summarizes one lifecycle stage's latency histogram.
type StageLatency struct {
	// Count is how many observations the stage has recorded (commands for
	// BatchWait/EndToEnd, slots for the others).
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	Max   time.Duration
}

func stageOf(h *metrics.Histogram) StageLatency {
	s := h.Snapshot()
	return StageLatency{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		Max:   s.Max,
	}
}

// SizeStats summarizes a unit-valued histogram — observations are counts
// (commands per batch), not durations, so the summary reads in plain units.
type SizeStats struct {
	// Count is how many batches have been cut.
	Count uint64
	Mean  float64
	P50   float64
	P90   float64
	P99   float64
	Max   float64
}

// sizeOf reads quantiles through the histogram's integer path: a batch size
// is a count, so a quantile is the bucket's bound, not an interpolation that
// truncates 1-command batches to 0.
func sizeOf(h *metrics.Histogram) SizeStats {
	s := h.Snapshot()
	return SizeStats{
		Count: s.Count,
		Mean:  float64(s.Sum) / float64(max(s.Count, 1)),
		P50:   float64(s.QuantileBound(0.50)),
		P90:   float64(s.QuantileBound(0.90)),
		P99:   float64(s.QuantileBound(0.99)),
		Max:   float64(s.Max),
	}
}

// GaugeStats is a level gauge's current value and high-water mark.
type GaugeStats struct {
	Current int64
	Peak    int64
}

func gaugeOf(g *metrics.Gauge) GaugeStats {
	return GaugeStats{Current: g.Load(), Peak: g.Peak()}
}

// Metrics is a point-in-time snapshot of the slot-lifecycle instrumentation
// (Log.Metrics). Counters are monotone; the stage histograms decompose a
// command's end-to-end latency:
//
//	enqueue --BatchWait--> dispatch --Agreement--> decided
//	        --CommitWait--> in-order release --Apply--> resolved
//
// BatchWait and EndToEnd are per command, the middle stages per slot, so on a
// batching workload EndToEnd.P50 ≈ BatchWait.P50 + Agreement.P50 +
// CommitWait.P50 + Apply.P50 (each command pays its slot's stage costs once).
// Snapshots taken from a concurrent goroutine mid-workload are valid: each
// instrument is internally consistent and counters never move backwards.
type Metrics struct {
	// Enqueued counts commands accepted into the pending queue.
	Enqueued uint64
	// Batches counts batch dispatches to slot workers, including the
	// re-dispatch of a displaced batch at a later slot.
	Batches uint64
	// Slots counts slots applied in slot order.
	Slots uint64
	// Committed counts committed commands, own and foreign.
	Committed uint64

	// BatchWait is enqueue → dispatch, per command: time spent waiting in
	// the pending queue for the dispatcher to take it into a batch.
	BatchWait StageLatency
	// Agreement is dispatch → decided, per slot: the consensus rounds,
	// including any recovery rounds and the replica catch-up wait.
	Agreement StageLatency
	// CommitWait is decided → in-order release, per slot: time spent in the
	// reorder buffer behind still-running predecessor slots.
	CommitWait StageLatency
	// Apply is the in-order commit step, per slot: appending the decided
	// batch, applying it to the authoritative machine, resolving waiters.
	Apply StageLatency
	// EndToEnd is enqueue → waiter resolved, per command.
	EndToEnd StageLatency

	// BatchSize is the distribution of chosen batch sizes (commands per cut
	// batch): how adaptive group commit is tracking offered load. Mean ≈ 1
	// means no coalescing (every command rides its own slot); a mean near
	// the client count means the drain is absorbing the whole queue.
	BatchSize SizeStats

	// QueueDepth is the pending queue (commands + barriers not yet taken
	// into a batch).
	QueueDepth GaugeStats
	// InflightSlots is how many slots are being agreed concurrently (≤ the
	// adaptive pipeline depth).
	InflightSlots GaugeStats
	// ReorderDepth is how many decided slots sit in the reorder buffer
	// waiting for a predecessor.
	ReorderDepth GaugeStats
}

// MetricsFrom snapshots the smr instrumentation recorded in reg. It is how
// aggregated views work: every group of a sharded deployment records into one
// shared registry, and one MetricsFrom call reads the fleet-wide totals.
func MetricsFrom(reg *metrics.Registry) Metrics {
	return Metrics{
		Enqueued:      reg.Counter(metricEnqueued).Load(),
		Batches:       reg.Counter(metricBatches).Load(),
		Slots:         reg.Counter(metricSlots).Load(),
		Committed:     reg.Counter(metricCommitted).Load(),
		BatchWait:     stageOf(reg.Histogram(metricBatchWait)),
		Agreement:     stageOf(reg.Histogram(metricAgreement)),
		CommitWait:    stageOf(reg.Histogram(metricCommitWait)),
		Apply:         stageOf(reg.Histogram(metricApply)),
		EndToEnd:      stageOf(reg.Histogram(metricEndToEnd)),
		BatchSize:     sizeOf(reg.HistogramWith(metricBatchSize, batchSizeBounds)),
		QueueDepth:    gaugeOf(reg.Gauge(metricQueueDepth)),
		InflightSlots: gaugeOf(reg.Gauge(metricInflight)),
		ReorderDepth:  gaugeOf(reg.Gauge(metricReorder)),
	}
}

// Metrics returns a snapshot of the group's slot-lifecycle metrics. Safe to
// call from any goroutine at any time, including mid-workload: the record
// path is lock-free, so observing never stalls the committer.
//
// When Options.Metrics names a registry shared with other groups, the
// snapshot covers every group recording into it (see MetricsFrom); with a
// private registry (the default) it covers this group alone.
func (l *Log) Metrics() Metrics { return MetricsFrom(l.m.reg) }

// Registry returns the metrics registry the group records into — the
// caller-supplied Options.Metrics, or the group's private one — for text
// exposition (Registry.WriteText) and expvar publication.
func (l *Log) Registry() *metrics.Registry { return l.m.reg }

// traceEvent records a structured lifecycle event into the cluster's trace
// recorder (core.Options.Recorder). Nil-safe: without a recorder it is a
// no-op, so call sites record unconditionally.
func (l *Log) traceEvent(proc types.ProcID, kind trace.Kind, format string, args ...any) {
	l.cluster.Opts.Recorder.Record(proc, kind, nil, 0, format, args...)
}
