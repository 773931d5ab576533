package smr

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"rdmaagreement/internal/core"
	"rdmaagreement/internal/metrics"
	"rdmaagreement/internal/trace"
)

// TestMetricsConcurrentObservation is the acceptance gate of the
// observability layer: Log.Metrics() polled from a concurrent goroutine
// during a pipelined workload must return consistent snapshots — counters
// monotone across reads, gauges within their structural bounds — and after
// the workload the per-stage latencies must decompose the end-to-end latency
// (stage p50s sum to the same order of magnitude as EndToEnd.P50). Run under
// -race in CI.
func TestMetricsConcurrentObservation(t *testing.T) {
	l := newTestLog(t, Options{
		Cluster:  core.Options{Processes: 3, Memories: 3, MemoryLatency: 500 * time.Microsecond},
		Pipeline: 4,
		MaxBatch: 8,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const clients = 8
	const perClient = 40

	stop := make(chan struct{})
	var monitorWG sync.WaitGroup
	monitorWG.Add(1)
	go func() {
		defer monitorWG.Done()
		var last Metrics
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := l.Metrics()
			if m.Enqueued < last.Enqueued || m.Batches < last.Batches ||
				m.Slots < last.Slots || m.Committed < last.Committed {
				t.Errorf("counters went backwards: %+v then %+v", last, m)
				return
			}
			if m.EndToEnd.Count < last.EndToEnd.Count || m.Agreement.Count < last.Agreement.Count {
				t.Errorf("histogram counts went backwards: %+v then %+v", last, m)
				return
			}
			if m.InflightSlots.Current < 0 || m.InflightSlots.Current > int64(m.InflightSlots.Peak) {
				t.Errorf("inflight gauge out of bounds: %+v", m.InflightSlots)
				return
			}
			if m.QueueDepth.Current < 0 {
				t.Errorf("queue depth went negative: %+v", m.QueueDepth)
				return
			}
			last = m
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, _, err := l.Propose(ctx, []byte(fmt.Sprintf("c%d-%d", c, i))); err != nil {
					t.Errorf("Propose: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	monitorWG.Wait()

	m := l.Metrics()
	const total = clients * perClient
	if m.Enqueued != total {
		t.Fatalf("Enqueued = %d, want %d", m.Enqueued, total)
	}
	if m.Committed < total {
		t.Fatalf("Committed = %d, want >= %d", m.Committed, total)
	}
	if m.EndToEnd.Count != total || m.BatchWait.Count != total {
		t.Fatalf("per-command stage counts: e2e %d, batch-wait %d, want %d",
			m.EndToEnd.Count, m.BatchWait.Count, total)
	}
	if m.Slots == 0 || m.Agreement.Count != m.Batches || m.CommitWait.Count != m.Slots || m.Apply.Count != m.Slots {
		t.Fatalf("per-slot stage counts inconsistent: %+v", m)
	}
	if m.QueueDepth.Current != 0 {
		t.Fatalf("queue depth settled at %d, want 0", m.QueueDepth.Current)
	}
	if m.InflightSlots.Current != 0 {
		t.Fatalf("inflight settled at %d, want 0", m.InflightSlots.Current)
	}
	if m.ReorderDepth.Current != 0 {
		t.Fatalf("reorder depth settled at %d, want 0", m.ReorderDepth.Current)
	}
	if m.EndToEnd.P50 <= 0 || m.Agreement.P50 <= 0 {
		t.Fatalf("latency stages must be positive: %+v", m)
	}
	// The stages partition a command's life, so their p50s must sum to the
	// same order of magnitude as the end-to-end p50. Wide tolerance: p50s of
	// different distributions do not add exactly.
	sum := m.BatchWait.P50 + m.Agreement.P50 + m.CommitWait.P50 + m.Apply.P50
	if sum < m.EndToEnd.P50/4 || sum > m.EndToEnd.P50*4 {
		t.Fatalf("stage p50 sum %v inconsistent with end-to-end p50 %v (batch-wait %v, agreement %v, commit-wait %v, apply %v)",
			sum, m.EndToEnd.P50, m.BatchWait.P50, m.Agreement.P50, m.CommitWait.P50, m.Apply.P50)
	}
}

// TestMetricsSharedRegistry runs two groups recording into one registry and
// checks the aggregated view sums their activity — the sharded layer's
// aggregation contract.
func TestMetricsSharedRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var logs []*Log
	for i := 0; i < 2; i++ {
		l := newTestLog(t, Options{
			Cluster: core.Options{Processes: 3, Memories: 3},
			Metrics: reg,
		})
		logs = append(logs, l)
	}
	for i, l := range logs {
		for j := 0; j < 5; j++ {
			if _, _, err := l.Propose(ctx, []byte(fmt.Sprintf("g%d-%d", i, j))); err != nil {
				t.Fatalf("Propose: %v", err)
			}
		}
	}

	agg := MetricsFrom(reg)
	if agg.Enqueued != 10 {
		t.Fatalf("aggregated Enqueued = %d, want 10", agg.Enqueued)
	}
	if agg.EndToEnd.Count != 10 {
		t.Fatalf("aggregated EndToEnd.Count = %d, want 10", agg.EndToEnd.Count)
	}
	// Both groups' snapshots read the same shared registry.
	if logs[0].Metrics() != agg || logs[1].Metrics() != agg {
		t.Fatalf("shared-registry groups must report the aggregate")
	}
	if logs[0].Registry() != reg {
		t.Fatalf("Registry() must hand back the shared registry")
	}
}

// TestMetricsPrivateRegistryByDefault pins the default: without
// Options.Metrics each group gets its own registry.
func TestMetricsPrivateRegistryByDefault(t *testing.T) {
	a := newTestLog(t, testOptions())
	b := newTestLog(t, testOptions())
	if a.Registry() == b.Registry() {
		t.Fatal("default registries must be private per group")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, _, err := a.Propose(ctx, []byte("x")); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if got := a.Metrics().Enqueued; got != 1 {
		t.Fatalf("a.Enqueued = %d, want 1", got)
	}
	if got := b.Metrics().Enqueued; got != 0 {
		t.Fatalf("b.Enqueued = %d, want 0", got)
	}
}

// TestMetricsBarriersNotCounted pins that read barriers are queue traffic
// (gauge) but not command traffic (Enqueued / stage histograms).
func TestMetricsBarriersNotCounted(t *testing.T) {
	l := newTestLog(t, testOptions())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := l.Barrier(ctx); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	m := l.Metrics()
	if m.Enqueued != 0 || m.EndToEnd.Count != 0 || m.BatchWait.Count != 0 {
		t.Fatalf("barrier leaked into command metrics: %+v", m)
	}
	if m.Slots == 0 {
		t.Fatalf("barrier slot not counted: %+v", m)
	}
	if m.QueueDepth.Peak < 1 {
		t.Fatalf("barrier never showed in queue depth: %+v", m.QueueDepth)
	}
}

// TestTraceLifecycleEvents attaches a ring recorder to a group and checks the
// long-lived lifecycle events land in it: snapshot truncation plus a lease
// takeover recorded through the cluster's detector hook.
func TestTraceLifecycleEvents(t *testing.T) {
	rec := trace.NewRing(128)
	l := newTestLog(t, Options{
		Cluster:          core.Options{Processes: 3, Memories: 3, Recorder: rec},
		SnapshotInterval: 2,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 6; i++ {
		if _, _, err := l.Propose(ctx, []byte(fmt.Sprintf("cmd-%d", i))); err != nil {
			t.Fatalf("Propose: %v", err)
		}
	}
	if got := len(rec.ByKind(trace.KindSnapshot)); got == 0 {
		t.Fatalf("no snapshot events recorded (snapshots=%d)", l.Snapshots())
	}

	// A forced transfer is a takeover: the detector's hook must record it.
	target := l.Cluster().Procs[1]
	l.Cluster().SetLeader(target)
	events := rec.ByKind(trace.KindLeaseTakeover)
	if len(events) == 0 {
		t.Fatal("no lease-takeover event recorded after SetLeader")
	}
	if events[len(events)-1].Proc != target {
		t.Fatalf("takeover event proc = %s, want %s", events[len(events)-1].Proc, target)
	}
}
