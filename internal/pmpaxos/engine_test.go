package pmpaxos

import (
	"context"
	"errors"
	"testing"
	"time"

	"rdmaagreement/internal/memsim"
	"rdmaagreement/internal/metrics"
	"rdmaagreement/internal/netsim"
	"rdmaagreement/internal/omega"
	"rdmaagreement/internal/types"
)

type engineFixture struct {
	procs   []types.ProcID
	pool    *memsim.Pool
	net     *netsim.Network
	oracle  *omega.Static
	open    *metrics.Gauge
	engines map[types.ProcID]*Engine
}

// newEngineFixture wires one engine per process over a shared pool with no
// regions laid out in advance. Processes listed in deaf get no decide
// subscription: they learn only what they decide themselves.
func newEngineFixture(t *testing.T, n int, deaf ...types.ProcID) *engineFixture {
	t.Helper()
	procs := make([]types.ProcID, 0, n)
	for i := 1; i <= n; i++ {
		procs = append(procs, types.ProcID(i))
	}
	f := &engineFixture{
		procs:   procs,
		pool:    memsim.NewPool(3, func(types.MemID) []memsim.RegionSpec { return nil }, memsim.Options{LegalChange: LegalChange(procs)}),
		net:     netsim.New(netsim.Options{}),
		oracle:  omega.NewStatic(1),
		open:    &metrics.Gauge{},
		engines: make(map[types.ProcID]*Engine),
	}
	var routers []*netsim.Router
	for _, p := range procs {
		ep := f.net.Register(p)
		cfg := EngineConfig{
			Self:           p,
			Procs:          procs,
			FaultyMemories: 1,
			Memories:       f.pool.Memories(),
			Oracle:         f.oracle,
			Endpoint:       ep,
			Open:           f.open,
		}
		isDeaf := false
		for _, d := range deaf {
			isDeaf = isDeaf || d == p
		}
		if !isDeaf {
			router := netsim.NewRouter(ep)
			routers = append(routers, router)
			cfg.DecideSub = router.Subscribe(SlotDecideKind, 4)
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatalf("NewEngine(%v): %v", p, err)
		}
		e.Start()
		f.engines[p] = e
	}
	t.Cleanup(func() {
		for _, e := range f.engines {
			e.Stop()
		}
		for _, r := range routers {
			r.Close()
		}
		f.net.Close()
	})
	return f
}

// TestEngineStableLeaderDecidesEverySlotInTwoDelays is Theorem 5.1 over a
// log: with a stable leader, every slot decides with one parallel write —
// two delays, no phase 1, no permission change — and every process learns
// every slot.
func TestEngineStableLeaderDecidesEverySlotInTwoDelays(t *testing.T) {
	f := newEngineFixture(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const slots = 50
	for s := uint64(0); s < slots; s++ {
		out, err := f.engines[1].Propose(ctx, s, types.Value{byte(s)}, false)
		if err != nil {
			t.Fatalf("Propose(slot %d): %v", s, err)
		}
		if out.DecisionDelays != 2 || out.Phase1 || out.Rounds != 1 {
			t.Fatalf("slot %d: outcome %+v, want 2 delays in one fast-path round", s, out)
		}
	}
	if pc := f.pool.TotalOps().PermChanges; pc != 0 {
		t.Fatalf("stable leader caused %d permission changes, want 0", pc)
	}
	for _, p := range f.procs {
		for s := uint64(0); s < slots; s++ {
			v, err := f.engines[p].WaitDecision(ctx, s)
			if err != nil || !v.Equal(types.Value{byte(s)}) {
				t.Fatalf("process %v slot %d learned %v, %v", p, s, v, err)
			}
		}
	}
	if peak := f.open.Peak(); peak != 1 {
		t.Fatalf("open-slot peak = %d for sequential proposals, want 1", peak)
	}
}

// TestEngineForcePhase1AdoptsDecidedValue runs the recovery proposal: a
// process that never learned the slot's decision proposes another value with
// forcePhase1, steals the permission and must adopt the decided value.
func TestEngineForcePhase1AdoptsDecidedValue(t *testing.T) {
	f := newEngineFixture(t, 3, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, err := f.engines[1].Propose(ctx, 7, types.Value("original"), false); err != nil {
		t.Fatalf("Propose at leader: %v", err)
	}
	before := f.pool.TotalOps().PermChanges
	out, err := f.engines[2].Propose(ctx, 7, types.Value("noop"), true)
	if err != nil {
		t.Fatalf("recovery Propose: %v", err)
	}
	if !out.Value.Equal(types.Value("original")) {
		t.Fatalf("recovery decided %v, want the adopted original", out.Value)
	}
	if !out.Phase1 || out.DecisionDelays == 0 {
		t.Fatalf("recovery outcome %+v, want a phase-1 round", out)
	}
	if after := f.pool.TotalOps().PermChanges; after == before {
		t.Fatalf("recovery round changed no permission")
	}
	// The regular holder's next proposal on a fresh slot is fast again.
	out, err = f.engines[1].Propose(ctx, 8, types.Value("next"), false)
	if err != nil || out.DecisionDelays != 2 || out.Phase1 {
		t.Fatalf("post-recovery slot: %+v, %v; want a 2-delay fast path", out, err)
	}
}

// TestEngineEarlyDecide delivers a decide before the process has touched the
// slot at all: WaitDecision must still return it.
func TestEngineEarlyDecide(t *testing.T) {
	f := newEngineFixture(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	ep := f.net.Register(1)
	if err := ep.Send(2, SlotDecideKind, encodeDecide(42, types.Value("early")), 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := f.engines[2].Decided(42); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("early decide never reached the engine")
		}
		time.Sleep(time.Millisecond)
	}
	v, err := f.engines[2].WaitDecision(ctx, 42)
	if err != nil || !v.Equal(types.Value("early")) {
		t.Fatalf("WaitDecision = %v, %v; want the early decide", v, err)
	}
}

// TestEngineLateDecideDropped releases slots and then floods the engine with
// decides for them, plus malformed payloads: none may bring per-slot state
// back, and none may block the router's dispatch loop — a decide for a live
// slot sent after the flood still arrives.
func TestEngineLateDecideDropped(t *testing.T) {
	f := newEngineFixture(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e := f.engines[2]

	for s := uint64(0); s < 10; s++ {
		if _, err := f.engines[1].Propose(ctx, s, types.Value("v"), false); err != nil {
			t.Fatalf("Propose(slot %d): %v", s, err)
		}
		if _, err := e.WaitDecision(ctx, s); err != nil {
			t.Fatalf("WaitDecision(slot %d): %v", s, err)
		}
	}
	e.Release(9)
	if n := e.Slots(); n != 0 {
		t.Fatalf("Slots() = %d after releasing every slot, want 0", n)
	}

	// Far more messages than the subscription buffers (4): a dispatch loop
	// that blocked on a released slot would wedge the router here.
	ep := f.net.Register(3)
	for i := 0; i < 200; i++ {
		payload := encodeDecide(uint64(i%10), types.Value("late"))
		if i%3 == 0 {
			payload = []byte{decideTag, 1, 2} // malformed: names no slot
		}
		if err := ep.Send(2, SlotDecideKind, payload, 0); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if err := ep.Send(2, SlotDecideKind, encodeDecide(10, types.Value("live")), 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	v, err := e.WaitDecision(ctx, 10)
	if err != nil || !v.Equal(types.Value("live")) {
		t.Fatalf("WaitDecision(10) = %v, %v; the flood of late decides blocked dispatch", v, err)
	}
	if n := e.Slots(); n != 1 {
		t.Fatalf("Slots() = %d, want 1: late decides brought released slots back", n)
	}
	if _, ok := e.Decided(3); ok {
		t.Fatalf("released slot 3 has a decision again")
	}
	if _, err := e.WaitDecision(ctx, 3); !errors.Is(err, ErrSlotReleased) {
		t.Fatalf("WaitDecision on a released slot: err = %v, want ErrSlotReleased", err)
	}
	if _, err := e.Propose(ctx, 3, types.Value("x"), false); !errors.Is(err, ErrSlotReleased) {
		t.Fatalf("Propose on a released slot: err = %v, want ErrSlotReleased", err)
	}
}

// TestEngineReleaseWakesWaiters releases a slot a learner is blocked on: the
// waiter fails with ErrSlotReleased instead of waiting out its context.
func TestEngineReleaseWakesWaiters(t *testing.T) {
	f := newEngineFixture(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e := f.engines[3]

	errc := make(chan error, 1)
	go func() {
		_, err := e.WaitDecision(ctx, 5)
		errc <- err
	}()
	for e.Slots() == 0 {
		time.Sleep(time.Millisecond)
	}
	e.Release(5)
	if err := <-errc; !errors.Is(err, ErrSlotReleased) {
		t.Fatalf("waiter on a released slot: err = %v, want ErrSlotReleased", err)
	}
}
