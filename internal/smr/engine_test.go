package smr

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"rdmaagreement/internal/core"
)

// TestEngineStableLeaseSlotsAreTwoDeciding checks Theorem 5.1 on the
// production path: under a stable lease, every slot the log commits through
// the engines — command batches and read-index no-op slots alike, pipelined
// — is decided by the holder's fast path in exactly two delays, and the
// whole run changes no memory permission.
func TestEngineStableLeaseSlotsAreTwoDeciding(t *testing.T) {
	opts := testOptions()
	opts.Pipeline = 4
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				if _, _, err := l.Propose(ctx, []byte(fmt.Sprintf("c%d/%d", c, k))); err != nil {
					t.Errorf("Propose: %v", err)
					return
				}
				if k%5 == 0 {
					if _, err := l.Barrier(ctx); err != nil {
						t.Errorf("Barrier: %v", err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	leader := l.Cluster().Leader()
	slots := l.Slots()
	if slots == 0 {
		t.Fatalf("no slots committed")
	}
	for slot := uint64(0); slot < slots; slot++ {
		d, ok := l.DeciderOf(slot)
		if !ok {
			t.Fatalf("slot %d: no decider recorded", slot)
		}
		if d.Proposer != leader || d.Delays != 2 || d.Phase1 {
			t.Fatalf("slot %d decided by %+v, want the holder %v in 2 delays without phase 1", slot, d, leader)
		}
	}
	if pc := l.Cluster().Pool.TotalOps().PermChanges; pc != 0 {
		t.Fatalf("%d permission changes over %d stable-lease slots, want 0", pc, slots)
	}
	if st := l.Stats(); st.Recovered != 0 || st.Takeovers != 0 {
		t.Fatalf("Stats = %+v, want a run without recovery or takeover", st)
	}
}

// TestEngineRecoverySlotRunsPhase1 stalls the fabric under a slot so its
// attempt times out ambiguously: the recovery round at that slot must run
// phase 1 from another replica, and the slots after it return to the
// holder's 2-delay fast path.
func TestEngineRecoverySlotRunsPhase1(t *testing.T) {
	opts := testOptions()
	opts.SlotTimeout = 300 * time.Millisecond
	l := newTestLog(t, opts)
	pool := l.Cluster().Pool
	pool.CrashQuorumSafe(3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, _, err := l.Propose(ctx, []byte("displaced"))
		done <- err
	}()
	time.Sleep(2 * opts.SlotTimeout)
	pool.Revive()
	if err := <-done; err != nil {
		t.Fatalf("Propose through ambiguous slot: %v", err)
	}
	if _, _, err := l.Propose(ctx, []byte("after")); err != nil {
		t.Fatalf("Propose after recovery: %v", err)
	}

	leader := l.Cluster().Leader()
	d, ok := l.DeciderOf(0)
	if !ok || d.Proposer == leader || !d.Phase1 {
		t.Fatalf("recovered slot 0 decided by %+v, want a phase-1 round from a replica other than %v", d, leader)
	}
	for slot := uint64(1); slot < l.Slots(); slot++ {
		if d, _ := l.DeciderOf(slot); d.Proposer != leader || d.Delays != 2 || d.Phase1 {
			t.Fatalf("slot %d after recovery decided by %+v, want the holder's 2-delay fast path", slot, d)
		}
	}
}

// TestEngineFencingSlotRunsPhase1 moves the lease while a slot's attempt is
// stuck: the superseded epoch's slot is re-run by the new holder with
// phase 1 (the permission steal is the fence), and fresh slots are laid out
// for the new holder, which then decides them in two delays.
func TestEngineFencingSlotRunsPhase1(t *testing.T) {
	opts := testOptions()
	opts.SlotTimeout = 300 * time.Millisecond
	l := newTestLog(t, opts)
	cluster := l.Cluster()
	cluster.Pool.CrashQuorumSafe(3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, _, err := l.Propose(ctx, []byte("fenced"))
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cluster.SetLeader(2)
	time.Sleep(100 * time.Millisecond)
	cluster.Pool.Revive()
	if err := <-done; err != nil {
		t.Fatalf("Propose across the takeover: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := l.Propose(ctx, []byte(fmt.Sprintf("epoch2-%d", i))); err != nil {
			t.Fatalf("Propose under the new epoch: %v", err)
		}
	}

	d, ok := l.DeciderOf(0)
	if !ok || d.Proposer != 2 || d.Epoch != 2 || !d.Phase1 {
		t.Fatalf("fenced slot 0 decided by %+v, want holder 2 under epoch 2 with phase 1", d)
	}
	for slot := uint64(1); slot < l.Slots(); slot++ {
		if d, _ := l.DeciderOf(slot); d.Proposer != 2 || d.Delays != 2 || d.Phase1 {
			t.Fatalf("slot %d under the new epoch decided by %+v, want holder 2's 2-delay fast path", slot, d)
		}
	}
}

// TestMetricsBatchSizeSingletons pins the integer batch-size quantiles: 100
// singleton batches report a median of 1 command, not 0.
func TestMetricsBatchSizeSingletons(t *testing.T) {
	opts := testOptions()
	opts.MaxBatch = 1
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 100; i++ {
		if _, _, err := l.Propose(ctx, []byte("x")); err != nil {
			t.Fatalf("Propose: %v", err)
		}
	}
	bs := l.Metrics().BatchSize
	if bs.Count != 100 || bs.P50 != 1 || bs.P99 != 1 || bs.Mean != 1 {
		t.Fatalf("BatchSize = %+v, want 100 singleton batches with P50 = P99 = Mean = 1", bs)
	}
}

// TestEngineCloseStopsGoroutines: once a log is closed, every goroutine it
// started — the committer, the lease runtime, the engines' demux loops, the
// routers and network links — has exited.
func TestEngineCloseStopsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	opts := Options{Cluster: core.Options{Processes: 3, Memories: 3, LeaseDuration: 200 * time.Millisecond}}
	l, err := NewLog(opts)
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		if _, _, err := l.Propose(ctx, []byte("x")); err != nil {
			t.Fatalf("Propose: %v", err)
		}
	}
	if _, err := l.Barrier(ctx); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	l.Close()
	waitGoroutines(t, before)
}

// waitGoroutines waits, bounded, for the goroutine count to fall back to
// want, and fails with a dump of the survivors if it does not.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines after Close, want ≤ %d:\n%s", runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
