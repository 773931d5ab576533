package smr

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"rdmaagreement/internal/types"
)

// rawSM implements StateMachine but not Querier: reads against it must
// report ErrNotQueryable.
type rawSM struct{}

func (rawSM) Apply(Entry) ([]byte, error)  { return nil, nil }
func (rawSM) Snapshot() ([]byte, error)    { return nil, nil }
func (rawSM) Restore([]byte, uint64) error { return nil }

// follower returns a non-leader replica of l's cluster.
func follower(t *testing.T, l *Log) types.ProcID {
	t.Helper()
	leader := l.Cluster().Leader()
	for _, p := range l.Cluster().Procs {
		if p != leader {
			return p
		}
	}
	t.Fatalf("single-process cluster has no follower")
	return types.NoProcess
}

// TestLinearizableReadFromFollower commits writes through the leader and
// checks that a ReadFrom served by a DIFFERENT replica, issued after each
// Propose returned, always observes that write: the read-index barrier plus
// the wait-for-apply step make a follower's answer as current as the
// leader's. Run under the race detector in CI.
func TestLinearizableReadFromFollower(t *testing.T) {
	opts := testOptions()
	opts.NewSM = newTestSM
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	f := follower(t, l)

	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("v%d", i)
		propose(t, ctx, l, "key", want)
		got, err := l.ReadFrom(ctx, f, []byte("key"))
		if err != nil {
			t.Fatalf("ReadFrom(%s) after write %d: %v", f, i, err)
		}
		if string(got) != want {
			t.Fatalf("ReadFrom(%s) = %q after Propose(key=%s) returned: stale read", f, got, want)
		}
	}
}

// TestLinearizableReadConcurrent runs a writer that bumps a counter and a
// reader issuing linearizable Reads concurrently: observed values must be
// monotone (a later read never sees an earlier state), and a read issued
// after the writer finished must see the final value. Run under the race
// detector in CI.
func TestLinearizableReadConcurrent(t *testing.T) {
	opts := testOptions()
	opts.NewSM = newTestSM
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const writes = 15
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= writes; i++ {
			if _, _, err := l.Propose(ctx, []byte("n="+strconv.Itoa(i))); err != nil {
				t.Errorf("Propose(n=%d): %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		last := 0
		for i := 0; i < writes; i++ {
			resp, err := l.Read(ctx, []byte("n"))
			if err != nil {
				t.Errorf("Read: %v", err)
				return
			}
			cur := 0
			if len(resp) > 0 {
				var convErr error
				cur, convErr = strconv.Atoi(string(resp))
				if convErr != nil {
					t.Errorf("Read returned %q", resp)
					return
				}
			}
			if cur < last {
				t.Errorf("Read went backwards: %d after %d", cur, last)
				return
			}
			last = cur
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	resp, err := l.Read(ctx, []byte("n"))
	if err != nil {
		t.Fatalf("final Read: %v", err)
	}
	if string(resp) != strconv.Itoa(writes) {
		t.Fatalf("final Read = %q, want %d (must observe every returned Propose)", resp, writes)
	}
}

// TestStaleReadMayLagReadMustNot crashes a follower, commits a write, and
// checks the contrast the API promises: StaleRead on the lagging replica
// serves its old local state while a linearizable Read observes the write.
func TestStaleReadMayLagReadMustNot(t *testing.T) {
	opts := testOptions()
	opts.NewSM = newTestSM
	opts.SnapshotInterval = -1 // keep the victim un-restored so its staleness is visible
	opts.ReplicaCatchUp = 300 * time.Millisecond
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	victim := follower(t, l)
	l.Cluster().CrashProcess(victim)

	propose(t, ctx, l, "key", "committed")

	stale, err := l.StaleRead(victim, []byte("key"))
	if err != nil {
		t.Fatalf("StaleRead(%s): %v", victim, err)
	}
	if string(stale) == "committed" {
		t.Fatalf("crashed replica %s observed the write: test cannot distinguish stale from fresh", victim)
	}
	fresh, err := l.Read(ctx, []byte("key"))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(fresh) != "committed" {
		t.Fatalf("Read = %q, want %q: linearizable read missed a committed write", fresh, "committed")
	}
}

// TestLifecycleErrors checks the typed errors on misuse: ErrClosed after
// Close (which is idempotent), ErrHalted on a halted group — with StaleRead
// explicitly surviving the halt (local state needs no consensus).
func TestLifecycleErrors(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	t.Run("closed", func(t *testing.T) {
		opts := testOptions()
		opts.NewSM = newTestSM
		l, err := NewLog(opts)
		if err != nil {
			t.Fatalf("NewLog: %v", err)
		}
		leader := l.Cluster().Leader()
		l.Close()
		l.Close() // idempotent: a second Close must be a harmless no-op

		if _, _, err := l.Propose(ctx, []byte("k=v")); !errors.Is(err, ErrClosed) {
			t.Fatalf("Propose after Close: err = %v, want ErrClosed", err)
		}
		if _, err := l.Read(ctx, []byte("k")); !errors.Is(err, ErrClosed) {
			t.Fatalf("Read after Close: err = %v, want ErrClosed", err)
		}
		if _, err := l.ReadFrom(ctx, leader, []byte("k")); !errors.Is(err, ErrClosed) {
			t.Fatalf("ReadFrom after Close: err = %v, want ErrClosed", err)
		}
		if _, err := l.StaleRead(leader, []byte("k")); !errors.Is(err, ErrClosed) {
			t.Fatalf("StaleRead after Close: err = %v, want ErrClosed", err)
		}
	})

	t.Run("close-in-flight", func(t *testing.T) {
		// A command caught mid-commit by Close is a clean shutdown: its
		// waiter must see ErrClosed (or success), never ErrHalted.
		opts := testOptions()
		opts.NewSM = newTestSM
		opts.Cluster.MemoryLatency = 20 * time.Millisecond
		l, err := NewLog(opts)
		if err != nil {
			t.Fatalf("NewLog: %v", err)
		}
		done := make(chan error, 1)
		go func() {
			_, _, err := l.Propose(ctx, []byte("k=v"))
			done <- err
		}()
		time.Sleep(10 * time.Millisecond)
		l.Close()
		if err := <-done; err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight Propose at Close: err = %v, want nil or ErrClosed (never ErrHalted)", err)
		}
	})

	t.Run("halted", func(t *testing.T) {
		opts := testOptions()
		opts.NewSM = newTestSM
		opts.SlotTimeout = 200 * time.Millisecond
		l := newTestLog(t, opts)
		leader := l.Cluster().Leader()
		propose(t, ctx, l, "k", "v")
		l.Cluster().Pool.CrashQuorumSafe(3) // all memories: no quorum possible
		if _, _, err := l.Propose(ctx, []byte("doomed=1")); !errors.Is(err, ErrHalted) {
			t.Fatalf("Propose on dead quorum: err = %v, want ErrHalted", err)
		}
		if _, _, err := l.Propose(ctx, []byte("after=1")); !errors.Is(err, ErrHalted) {
			t.Fatalf("Propose after halt: err = %v, want ErrHalted", err)
		}
		if _, err := l.Read(ctx, []byte("k")); !errors.Is(err, ErrHalted) {
			t.Fatalf("Read after halt: err = %v, want ErrHalted", err)
		}
		// StaleRead still serves the locally applied prefix.
		got, err := l.StaleRead(leader, []byte("k"))
		if err != nil {
			t.Fatalf("StaleRead on halted group: %v", err)
		}
		if string(got) != "v" {
			t.Fatalf("StaleRead on halted group = %q, want %q", got, "v")
		}
	})
}

// TestReadNotQueryable plugs in a state machine without Querier and checks
// that every read path reports ErrNotQueryable instead of guessing.
func TestReadNotQueryable(t *testing.T) {
	opts := testOptions()
	opts.NewSM = func() StateMachine { return rawSM{} }
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := l.Read(ctx, []byte("q")); !errors.Is(err, ErrNotQueryable) {
		t.Fatalf("Read: err = %v, want ErrNotQueryable", err)
	}
	if _, err := l.StaleRead(l.Cluster().Leader(), []byte("q")); !errors.Is(err, ErrNotQueryable) {
		t.Fatalf("StaleRead: err = %v, want ErrNotQueryable", err)
	}
}
