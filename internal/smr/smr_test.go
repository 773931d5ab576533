package smr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rdmaagreement/internal/core"
)

func testOptions() Options {
	return Options{Cluster: core.Options{Processes: 3, Memories: 3}}
}

func newTestLog(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := NewLog(opts)
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	t.Cleanup(l.Close)
	return l
}

// TestProposeSequential commits a handful of commands one by one and checks
// the committed prefix.
func TestProposeSequential(t *testing.T) {
	l := newTestLog(t, testOptions())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 0; i < 10; i++ {
		cmd := []byte(fmt.Sprintf("cmd-%d", i))
		index, _, err := l.Propose(ctx, cmd)
		if err != nil {
			t.Fatalf("Propose(%d): %v", i, err)
		}
		if index != uint64(i) {
			t.Fatalf("Propose(%d): index = %d, want %d", i, index, i)
		}
	}
	if got := l.Len(); got != 10 {
		t.Fatalf("Len() = %d, want 10", got)
	}
	for i := uint64(0); i < 10; i++ {
		e, ok := l.Get(i)
		if !ok {
			t.Fatalf("Get(%d): missing", i)
		}
		if want := fmt.Sprintf("cmd-%d", i); string(e.Cmd) != want {
			t.Fatalf("Get(%d) = %q, want %q", i, e.Cmd, want)
		}
	}
}

// TestConcurrentProposeReplicasAgree drives concurrent Propose calls from many
// goroutines and checks that (a) the committed log is gap-free with every
// command exactly once, and (b) every replica learned the identical command
// sequence.
func TestConcurrentProposeReplicasAgree(t *testing.T) {
	opts := testOptions()
	// A little memory latency makes slots slow enough that concurrent
	// submissions actually pile up into batches.
	opts.Cluster.MemoryLatency = 500 * time.Microsecond
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const clients = 8
	const perClient = 5
	indices := make(chan uint64, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				index, _, err := l.Propose(ctx, []byte(fmt.Sprintf("c%d/%d", c, k)))
				if err != nil {
					t.Errorf("Propose(c%d/%d): %v", c, k, err)
					return
				}
				indices <- index
			}
		}(c)
	}
	wg.Wait()
	close(indices)
	if t.Failed() {
		t.FailNow()
	}

	// Gap-free: the returned indices are exactly 0..N-1.
	seen := make(map[uint64]bool)
	for i := range indices {
		if seen[i] {
			t.Fatalf("index %d returned twice", i)
		}
		seen[i] = true
	}
	total := uint64(clients * perClient)
	if l.Len() != total {
		t.Fatalf("Len() = %d, want %d", l.Len(), total)
	}
	for i := uint64(0); i < total; i++ {
		if !seen[i] {
			t.Fatalf("index %d never returned: log has a gap", i)
		}
	}

	// Every replica learned the identical, gap-free sequence.
	leaderLog, ok := l.ReplicaLog(l.Cluster().Leader())
	if !ok {
		t.Fatalf("leader replica log has gaps")
	}
	if uint64(len(leaderLog)) != total {
		t.Fatalf("leader replica log has %d commands, want %d", len(leaderLog), total)
	}
	for _, p := range l.Cluster().Procs {
		replicaLog, ok := l.ReplicaLog(p)
		if !ok {
			t.Fatalf("replica %s log has gaps", p)
		}
		if len(replicaLog) != len(leaderLog) {
			t.Fatalf("replica %s log has %d commands, leader has %d", p, len(replicaLog), len(leaderLog))
		}
		for i := range leaderLog {
			if !bytes.Equal(replicaLog[i], leaderLog[i]) {
				t.Fatalf("replica %s log[%d] = %q, leader log[%d] = %q", p, i, replicaLog[i], i, leaderLog[i])
			}
		}
	}

	// Concurrent submission must actually have batched: strictly fewer slots
	// than commands.
	if slots := l.Slots(); slots >= total {
		t.Fatalf("Slots() = %d for %d commands: batching never happened", slots, total)
	}
}

// TestBatchingPreservesClientFIFO checks that each client's commands appear
// in the log in submission order even when batched with other clients'.
func TestBatchingPreservesClientFIFO(t *testing.T) {
	opts := testOptions()
	opts.Cluster.MemoryLatency = 500 * time.Microsecond
	opts.MaxBatch = 4 // force several partial batches
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const clients = 6
	const perClient = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				if _, _, err := l.Propose(ctx, []byte(fmt.Sprintf("c%d/%d", c, k))); err != nil {
					t.Errorf("Propose(c%d/%d): %v", c, k, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	entries := l.Entries(0)
	if len(entries) != clients*perClient {
		t.Fatalf("committed %d entries, want %d", len(entries), clients*perClient)
	}
	lastSeq := make([]int, clients)
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	for _, e := range entries {
		parts := strings.SplitN(strings.TrimPrefix(string(e.Cmd), "c"), "/", 2)
		c, err1 := strconv.Atoi(parts[0])
		k, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("malformed command %q", e.Cmd)
		}
		if k != lastSeq[c]+1 {
			t.Fatalf("client %d: command %d committed after %d — FIFO violated", c, k, lastSeq[c])
		}
		lastSeq[c] = k
	}
}

// TestEntriesCatchUp reads the committed suffix from an arbitrary index.
func TestEntriesCatchUp(t *testing.T) {
	l := newTestLog(t, testOptions())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 6; i++ {
		if _, _, err := l.Propose(ctx, []byte(fmt.Sprintf("cmd-%d", i))); err != nil {
			t.Fatalf("Propose(%d): %v", i, err)
		}
	}
	tail := l.Entries(4)
	if len(tail) != 2 {
		t.Fatalf("Entries(4) returned %d entries, want 2", len(tail))
	}
	for i, e := range tail {
		if e.Index != uint64(4+i) {
			t.Fatalf("Entries(4)[%d].Index = %d, want %d", i, e.Index, 4+i)
		}
	}
	if got := l.Entries(100); got != nil {
		t.Fatalf("Entries(100) = %v, want nil", got)
	}
}

// TestNewLogRejectsInvalidCluster checks the construction error path: a
// cluster whose memories cannot tolerate the configured f_M fails NewLog
// instead of the first Propose.
func TestNewLogRejectsInvalidCluster(t *testing.T) {
	_, err := NewLog(Options{Cluster: core.Options{Processes: 3, Memories: 2, FaultyMemories: 1}})
	if err == nil {
		t.Fatalf("NewLog with m=2, f_M=1 succeeded, want a configuration error")
	}
}

// TestHaltOnAmbiguousSlot crashes every memory so the slot cannot complete:
// the waiting Propose must fail, and the log must halt permanently (no retry of
// the slot, immediate errors afterwards) because the slot's outcome is
// ambiguous.
func TestHaltOnAmbiguousSlot(t *testing.T) {
	opts := testOptions()
	opts.SlotTimeout = 200 * time.Millisecond
	l := newTestLog(t, opts)
	l.Cluster().Pool.CrashQuorumSafe(3) // all memories: no quorum possible

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, _, err := l.Propose(ctx, []byte("doomed")); err == nil {
		t.Fatalf("Propose succeeded with every memory crashed")
	}
	// The group is halted: later commands fail fast instead of queueing
	// behind a slot that can never be resolved.
	start := time.Now()
	if _, _, err := l.Propose(ctx, []byte("after-halt")); err == nil {
		t.Fatalf("Propose after halt succeeded")
	} else if !errors.Is(err, ErrHalted) {
		t.Fatalf("Propose after halt: err = %v, want ErrHalted", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Propose after halt took %s, want fail-fast", elapsed)
	}
	if l.Len() != 0 {
		t.Fatalf("Len() = %d after halt, want 0", l.Len())
	}
}

// TestCrashedReplicaDoesNotStallLog crashes one non-leader replica — the
// fault the protocols advertise tolerating — and checks that the log keeps
// committing at speed: only the first slot after the crash may pay the
// catch-up timeout (the replica is then marked lagging), and the healthy
// replicas stay gap-free.
func TestCrashedReplicaDoesNotStallLog(t *testing.T) {
	opts := testOptions()
	opts.ReplicaCatchUp = time.Second
	l := newTestLog(t, opts)

	leader := l.Cluster().Leader()
	victim := leader
	for _, p := range l.Cluster().Procs {
		if p != leader {
			victim = p
			break
		}
	}
	l.Cluster().CrashProcess(victim)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	const cmds = 5
	for i := 0; i < cmds; i++ {
		if _, _, err := l.Propose(ctx, []byte(fmt.Sprintf("cmd-%d", i))); err != nil {
			t.Fatalf("Propose(%d): %v", i, err)
		}
	}
	elapsed := time.Since(start)
	// One catch-up window at most, not one per slot.
	if elapsed > 2*opts.ReplicaCatchUp {
		t.Fatalf("%d commits took %s with one crashed replica (catch-up %s): log stalls per slot", cmds, elapsed, opts.ReplicaCatchUp)
	}

	for _, p := range l.Cluster().Procs {
		replicaLog, gapFree := l.ReplicaLog(p)
		if p == victim {
			continue // the crashed replica is allowed (expected) to lag
		}
		if !gapFree || len(replicaLog) != cmds {
			t.Fatalf("healthy replica %s: %d commands, gap-free=%v; want %d, true", p, len(replicaLog), gapFree, cmds)
		}
	}
}
