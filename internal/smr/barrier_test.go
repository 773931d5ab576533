package smr

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestBarrierFlushesCommittedPrefix pins Barrier's contract: when it returns,
// every command enqueued before the call is committed and applied, and the
// returned index is the applied prefix length. It must pay the slot path even
// when a lease is in force — a zero-slot answer would flush nothing.
func TestBarrierFlushesCommittedPrefix(t *testing.T) {
	opts := leaseTestOptions(time.Second)
	opts.NewSM = newTestSM
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 0; i < 3; i++ {
		propose(t, ctx, l, "key", "v")
	}
	slotsBefore := l.Slots()
	index, err := l.Barrier(ctx)
	if err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	if index != 3 {
		t.Fatalf("Barrier index = %d, want 3 (the applied prefix)", index)
	}
	if got := l.Slots(); got <= slotsBefore {
		t.Fatalf("Barrier committed no slot (Slots() %d, was %d): the flush must ride the log even under a lease", got, slotsBefore)
	}
}

// TestBarrierAfterClose pins the lifecycle error.
func TestBarrierAfterClose(t *testing.T) {
	l := newTestLog(t, testOptions())
	l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := l.Barrier(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Barrier after Close: err = %v, want ErrClosed", err)
	}
}

// TestLocalReadPrefersLeaseHolderThenApplied pins the stale-read routing fix:
// under a healthy lease LocalRead answers (from the holder's view); after the
// holder's process is stalled — the window in which Cluster.Leader() may
// still name the deposed holder, whose learner view is frozen — LocalRead
// must still answer, from whichever replica view has applied the most.
func TestLocalReadPrefersLeaseHolderThenApplied(t *testing.T) {
	opts := leaseTestOptions(150 * time.Millisecond)
	opts.NewSM = newTestSM
	opts.ReplicaCatchUp = 200 * time.Millisecond
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	propose(t, ctx, l, "key", "v1")
	if got, err := l.LocalRead([]byte("key")); err != nil || string(got) != "v1" {
		t.Fatalf("LocalRead under lease = %q, %v; want v1", got, err)
	}

	// Stall the holder and poll LocalRead continuously through the takeover:
	// it must answer at every point — mid-takeover included — never error and
	// never lose the committed value.
	old := l.Cluster().LeaseHolder()
	l.Cluster().CrashProcess(old)
	deadline := time.Now().Add(10 * time.Second)
	for l.Cluster().LeaseEpoch() == 1 {
		if got, err := l.LocalRead([]byte("key")); err != nil || string(got) != "v1" {
			t.Fatalf("LocalRead mid-takeover = %q, %v; want v1", got, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no takeover after stalling %s", old)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, err := l.LocalRead([]byte("key")); err != nil || string(got) != "v1" {
		t.Fatalf("LocalRead after takeover = %q, %v; want v1", got, err)
	}
}

// TestClosedLogReportsZeroPipelineDepth pins the "closed is not backed off"
// normalization: a live group reports its adaptive depth, a closed one
// reports 0 so that cross-group minimum aggregations can skip it.
func TestClosedLogReportsZeroPipelineDepth(t *testing.T) {
	opts := testOptions()
	opts.Pipeline = 4
	l, err := NewLog(opts)
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	if got := l.Stats().PipelineDepth; got != 4 {
		t.Fatalf("live PipelineDepth = %d, want 4", got)
	}
	l.Close()
	if got := l.Stats().PipelineDepth; got != 0 {
		t.Fatalf("closed PipelineDepth = %d, want 0", got)
	}
}
