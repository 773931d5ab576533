package smr

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestRecoveryDisplacedCommand stages the ambiguous-slot scenario the
// committer must survive: the proposer's slot attempt is killed mid-agreement
// by stalling its entire memory quorum (every phase-2 write is swallowed by
// crashed memories, so the slot times out with its outcome unknown), and the
// fabric then comes back. The group must NOT halt: a recovery round
// re-proposes a no-op into the ambiguous slot, learns that the original batch
// never became durable (the no-op wins the slot), and the displaced command
// lands at a later slot — exactly once.
func TestRecoveryDisplacedCommand(t *testing.T) {
	opts := testOptions()
	opts.SlotTimeout = 300 * time.Millisecond
	l := newTestLog(t, opts)
	pool := l.Cluster().Pool
	pool.CrashQuorumSafe(3) // the whole fabric stalls: the slot cannot resolve

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The proposer's writes are issued into the crashed memories immediately
	// (where they block forever — a crash consumes in-flight operations), so
	// the original attempt is guaranteed to time out ambiguously. Revive the
	// fabric once that timeout has surely fired: one of the remaining
	// recovery rounds then runs against live memories.
	done := make(chan error, 1)
	go func() {
		index, _, err := l.Propose(ctx, []byte("displaced"))
		if err == nil && index != 0 {
			err = fmt.Errorf("displaced command got index %d, want 0", index)
		}
		done <- err
	}()
	time.Sleep(2 * opts.SlotTimeout)
	pool.Revive()

	if err := <-done; err != nil {
		t.Fatalf("Propose through ambiguous slot: %v", err)
	}

	// Exactly once, at a later slot: the ambiguous slot 0 was resolved to a
	// no-op, and the command committed in a retry slot above it.
	if l.Len() != 1 {
		t.Fatalf("Len() = %d, want 1 (exactly-once retry)", l.Len())
	}
	e, ok := l.Get(0)
	if !ok || string(e.Cmd) != "displaced" {
		t.Fatalf("Get(0) = %q, %v; want the displaced command", e.Cmd, ok)
	}
	if e.Slot == 0 {
		t.Fatalf("displaced command committed at slot 0, want a later slot (slot 0 resolved to the recovery no-op)")
	}
	stats := l.Stats()
	if stats.Recovered != 1 || stats.Refused != 0 {
		t.Fatalf("Stats = %+v, want {Recovered:1 Refused:0}", stats)
	}

	// The group resumed, not halted.
	index, _, err := l.Propose(ctx, []byte("after-recovery"))
	if err != nil {
		t.Fatalf("Propose after recovery: %v", err)
	}
	if index != 1 {
		t.Fatalf("Propose after recovery: index = %d, want 1", index)
	}
}

// TestRecoveryAdoptsPersistedValue stages the other fate of an ambiguous
// slot: the attempt's phase-2 write reached one memory before the rest of
// the quorum stalled, so the value persists in the slot's substrate. The
// recovery round's no-op must be refused — phase 1 adopts the persisted
// batch and re-decides it — and the waiting command resolves at the
// recovered slot itself, not at a retry slot. Memory 3 stays crashed during
// recovery so the recovery quorum provably includes the memory holding the
// value (the protocol tolerates f_M = 1 crashed memory).
func TestRecoveryAdoptsPersistedValue(t *testing.T) {
	opts := testOptions()
	opts.SlotTimeout = 300 * time.Millisecond
	l := newTestLog(t, opts)
	mems := l.Cluster().Pool.Memories()
	mems[1].Crash()
	mems[2].Crash() // memory 1 stays alive: the write lands there, short of a quorum

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	done := make(chan error, 1)
	go func() {
		index, _, err := l.Propose(ctx, []byte("persisted"))
		if err == nil && index != 0 {
			err = fmt.Errorf("persisted command got index %d, want 0", index)
		}
		done <- err
	}()
	time.Sleep(2 * opts.SlotTimeout)
	mems[1].Revive() // memories 1+2 form the recovery quorum; 3 stays down

	if err := <-done; err != nil {
		t.Fatalf("Propose through ambiguous slot: %v", err)
	}

	if l.Len() != 1 {
		t.Fatalf("Len() = %d, want 1 (exactly-once)", l.Len())
	}
	e, ok := l.Get(0)
	if !ok || string(e.Cmd) != "persisted" {
		t.Fatalf("Get(0) = %q, %v; want the persisted command", e.Cmd, ok)
	}
	if e.Slot != 0 {
		t.Fatalf("persisted command committed at slot %d, want the recovered slot 0", e.Slot)
	}
	stats := l.Stats()
	if stats.Recovered != 1 || stats.Refused != 1 {
		t.Fatalf("Stats = %+v, want {Recovered:1 Refused:1}", stats)
	}

	mems[2].Revive()
	if _, _, err := l.Propose(ctx, []byte("after-recovery")); err != nil {
		t.Fatalf("Propose after recovery: %v", err)
	}
}

// TestHaltWhenRecoveryCannotResolve keeps the fabric down for good: the
// original attempt AND every recovery round fail, so the group must still
// halt (recovery resolves transient stalls; it must not spin forever on a
// permanent one).
func TestHaltWhenRecoveryCannotResolve(t *testing.T) {
	opts := testOptions()
	opts.SlotTimeout = 150 * time.Millisecond
	l := newTestLog(t, opts)
	l.Cluster().Pool.CrashQuorumSafe(3)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, _, err := l.Propose(ctx, []byte("doomed")); err == nil {
		t.Fatalf("Propose succeeded with the whole fabric down")
	} else if !errors.Is(err, ErrHalted) {
		t.Fatalf("Propose: err = %v, want ErrHalted", err)
	}
	if _, _, err := l.Propose(ctx, []byte("after-halt")); !errors.Is(err, ErrHalted) {
		t.Fatalf("Propose after halt: err = %v, want ErrHalted", err)
	}
	if stats := l.Stats(); stats.Recovered != 0 {
		t.Fatalf("Stats = %+v, want no recoveries on a permanent fault", stats)
	}
}

// TestHaltCommitsDecidedPrefix pins the committer's halt semantics under
// pipelining: a slot that already DECIDED (its worker succeeded and the
// replica learner views observed it) must still be committed when a later
// in-flight slot halts the group — discarding it would tell a
// durably-committed command's waiter it never committed while
// StaleRead/ReplicaLog keep showing it. Slot 0 is made slow-but-successful
// (a crashed replica process holds its worker in the learner catch-up wait),
// slot 1 fails permanently (the whole fabric crashes before it starts), so
// slot 1's halt reaches the dispatcher while slot 0's success is still in
// flight.
func TestHaltCommitsDecidedPrefix(t *testing.T) {
	opts := testOptions()
	opts.Pipeline = 2
	opts.MaxBatch = 1
	opts.SlotTimeout = 200 * time.Millisecond
	opts.ReplicaCatchUp = 2 * time.Second
	l := newTestLog(t, opts)

	leader := l.Cluster().Leader()
	victim := leader
	for _, p := range l.Cluster().Procs {
		if p != leader {
			victim = p
			break
		}
	}
	l.Cluster().CrashProcess(victim) // slot 0 decides fast but waits out the catch-up budget

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	committed := make(chan error, 1)
	go func() {
		index, _, err := l.Propose(ctx, []byte("decided"))
		if err == nil && index != 0 {
			err = fmt.Errorf("decided command got index %d, want 0", index)
		}
		committed <- err
	}()
	time.Sleep(100 * time.Millisecond) // slot 0 has decided; its worker is in the catch-up wait
	l.Cluster().Pool.CrashQuorumSafe(3)
	if _, _, err := l.Propose(ctx, []byte("doomed")); !errors.Is(err, ErrHalted) {
		t.Fatalf("Propose into the dead fabric: err = %v, want ErrHalted", err)
	}
	if err := <-committed; err != nil {
		t.Fatalf("Propose of the decided slot: %v — a decided slot was discarded by the halt", err)
	}

	// The authoritative log and the replica views agree about the decided
	// slot on the halted group.
	if l.Len() != 1 {
		t.Fatalf("Len() = %d after halt, want 1 (the decided slot committed)", l.Len())
	}
	if e, ok := l.Get(0); !ok || string(e.Cmd) != "decided" {
		t.Fatalf("Get(0) = %q, %v; want the decided command", e.Cmd, ok)
	}
	replicaLog, gapFree := l.ReplicaLog(leader)
	if !gapFree || len(replicaLog) != 1 || string(replicaLog[0]) != "decided" {
		t.Fatalf("leader replica log = %q (gap-free=%v), want exactly the decided command", replicaLog, gapFree)
	}
}
