package pmpaxos

import (
	"context"
	"sync"
	"testing"
	"time"

	"rdmaagreement/internal/memsim"
	"rdmaagreement/internal/netsim"
	"rdmaagreement/internal/omega"
	"rdmaagreement/internal/types"
)

type fixture struct {
	procs   []types.ProcID
	pool    *memsim.Pool
	net     *netsim.Network
	routers map[types.ProcID]*netsim.Router
	oracle  *omega.Static
	nodes   map[types.ProcID]*Node
}

func newFixture(t *testing.T, n, m, fM int) *fixture {
	t.Helper()
	procs := make([]types.ProcID, 0, n)
	for i := 1; i <= n; i++ {
		procs = append(procs, types.ProcID(i))
	}
	pool := memsim.NewPool(m, func(types.MemID) []memsim.RegionSpec {
		return Layout(procs, 1)
	}, memsim.Options{LegalChange: LegalChange(procs)})
	f := &fixture{
		procs:   procs,
		pool:    pool,
		net:     netsim.New(netsim.Options{}),
		routers: make(map[types.ProcID]*netsim.Router),
		oracle:  omega.NewStatic(1),
		nodes:   make(map[types.ProcID]*Node),
	}
	t.Cleanup(f.net.Close)
	for _, p := range procs {
		ep := f.net.Register(p)
		router := netsim.NewRouter(ep)
		f.routers[p] = router
		node, err := New(Config{
			Self:           p,
			Procs:          procs,
			InitialLeader:  1,
			FaultyMemories: fM,
			Memories:       pool.Memories(),
			Oracle:         f.oracle,
			Endpoint:       ep,
			DecideSub:      router.Subscribe(DecideKind, 0),
		})
		if err != nil {
			t.Fatalf("New(%v): %v", p, err)
		}
		node.Start()
		f.nodes[p] = node
	}
	t.Cleanup(func() {
		for _, node := range f.nodes {
			node.Stop()
		}
		for _, r := range f.routers {
			r.Close()
		}
	})
	return f
}

func TestInitialLeaderDecidesInTwoDelays(t *testing.T) {
	f := newFixture(t, 3, 3, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	out, err := f.nodes[1].Propose(ctx, types.Value("fast"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if !out.Value.Equal(types.Value("fast")) {
		t.Fatalf("decided %v", out.Value)
	}
	if out.DecisionDelays != 2 {
		t.Fatalf("initial leader decision took %d delays, want 2 (Theorem 5.1)", out.DecisionDelays)
	}
	if out.Rounds != 1 {
		t.Fatalf("initial leader needed %d rounds, want 1", out.Rounds)
	}
}

func TestAllLearnersReceiveDecision(t *testing.T) {
	f := newFixture(t, 3, 3, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, err := f.nodes[1].Propose(ctx, types.Value("learned")); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	for _, p := range f.procs {
		v, err := f.nodes[p].WaitDecision(ctx)
		if err != nil {
			t.Fatalf("WaitDecision at %v: %v", p, err)
		}
		if !v.Equal(types.Value("learned")) {
			t.Fatalf("process %v learned %v", p, v)
		}
	}
}

func TestSingleSurvivingProcessDecides(t *testing.T) {
	// n ≥ f_P + 1: all processes except one may crash. Crashed processes
	// here simply never act; p3 (not even the initial leader) proposes alone
	// after taking over the write permission.
	f := newFixture(t, 3, 3, 1)
	f.oracle.SetLeader(3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	out, err := f.nodes[3].Propose(ctx, types.Value("lone-survivor"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if !out.Value.Equal(types.Value("lone-survivor")) {
		t.Fatalf("decided %v", out.Value)
	}
}

func TestAgreementAcrossLeaderChange(t *testing.T) {
	f := newFixture(t, 3, 3, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// The initial leader decides a value.
	first, err := f.nodes[1].Propose(ctx, types.Value("first"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	// A new leader with a different input must adopt and decide the same
	// value (agreement, Theorem D.2).
	f.oracle.SetLeader(2)
	second, err := f.nodes[2].Propose(ctx, types.Value("second"))
	if err != nil {
		t.Fatalf("second Propose: %v", err)
	}
	if !second.Value.Equal(first.Value) {
		t.Fatalf("agreement violated: %v then %v", first.Value, second.Value)
	}
}

func TestOldLeaderCannotDecideAfterTakeover(t *testing.T) {
	f := newFixture(t, 2, 3, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// p2 takes over the write permission before p1 ever proposes. p1's
	// phase-2 write must nak, forcing it through a full round; both must
	// agree in the end.
	f.oracle.SetLeader(2)
	out2, err := f.nodes[2].Propose(ctx, types.Value("takeover"))
	if err != nil {
		t.Fatalf("Propose at p2: %v", err)
	}

	f.oracle.SetLeader(1)
	out1, err := f.nodes[1].Propose(ctx, types.Value("stale"))
	if err != nil {
		t.Fatalf("Propose at p1: %v", err)
	}
	if !out1.Value.Equal(out2.Value) {
		t.Fatalf("agreement violated after takeover: %v vs %v", out1.Value, out2.Value)
	}
	if !out1.Value.Equal(types.Value("takeover")) {
		t.Fatalf("the first decided value should win, got %v", out1.Value)
	}
	// The uncontended-write guarantee: the preempted old leader can never
	// push its own stale value through in a single write.
	if out1.Value.Equal(types.Value("stale")) {
		t.Fatalf("the old leader decided its own value despite losing the write permission")
	}
}

func TestToleratesMinorityMemoryCrash(t *testing.T) {
	f := newFixture(t, 3, 5, 2)
	f.pool.CrashQuorumSafe(2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	out, err := f.nodes[1].Propose(ctx, types.Value("memory-crash"))
	if err != nil {
		t.Fatalf("Propose with crashed memories: %v", err)
	}
	if !out.Value.Equal(types.Value("memory-crash")) {
		t.Fatalf("decided %v", out.Value)
	}
	if out.DecisionDelays != 2 {
		t.Fatalf("decision with crashed memory minority took %d delays, want 2", out.DecisionDelays)
	}
}

func TestBlocksWithMajorityMemoryCrash(t *testing.T) {
	f := newFixture(t, 2, 3, 1)
	f.pool.CrashQuorumSafe(2) // more than f_M
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := f.nodes[1].Propose(ctx, types.Value("stuck")); err == nil {
		t.Fatalf("proposal should not complete when a majority of memories crashed")
	}
}

func TestConcurrentProposersAgree(t *testing.T) {
	f := newFixture(t, 3, 3, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	results := make(map[types.ProcID]types.Value)
	var mu sync.Mutex
	for _, p := range []types.ProcID{1, 2} {
		wg.Add(1)
		go func(p types.ProcID) {
			defer wg.Done()
			out, err := f.nodes[p].Propose(ctx, types.Value("from-"+types.ProcID(p).String()))
			if err != nil {
				t.Errorf("Propose at %v: %v", p, err)
				return
			}
			mu.Lock()
			results[p] = out.Value
			mu.Unlock()
		}(p)
	}
	// Let both contend, then settle leadership on p2 so one of them wins.
	time.Sleep(30 * time.Millisecond)
	f.oracle.SetLeader(2)
	wg.Wait()

	if len(results) != 2 {
		t.Fatalf("expected both proposers to terminate, got %v", results)
	}
	if !results[1].Equal(results[2]) {
		t.Fatalf("agreement violated: %v vs %v", results[1], results[2])
	}
}

func TestValidity(t *testing.T) {
	f := newFixture(t, 3, 3, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := f.nodes[1].Propose(ctx, types.Value("the-only-input"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if !out.Value.Equal(types.Value("the-only-input")) {
		t.Fatalf("validity violated: decided %v", out.Value)
	}
}

func TestConfigValidation(t *testing.T) {
	procs := []types.ProcID{1, 2}
	pool := memsim.NewPool(3, func(types.MemID) []memsim.RegionSpec { return Layout(procs, 1) }, memsim.Options{})
	base := Config{Self: 1, Procs: procs, InitialLeader: 1, FaultyMemories: 1, Memories: pool.Memories()}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"no processes":     func(c *Config) { c.Procs = nil },
		"too few memories": func(c *Config) { c.FaultyMemories = 2 },
		"missing leader":   func(c *Config) { c.InitialLeader = types.NoProcess },
	} {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("%s: config should be rejected", name)
		}
	}
	if _, err := New(Config{Self: 1, Procs: procs, InitialLeader: 1, FaultyMemories: 5, Memories: pool.Memories()}); err == nil {
		t.Fatalf("New should reject invalid configuration")
	}
}

func TestSlotEncoding(t *testing.T) {
	s := slot{
		MinProposal: types.ProposalNumber{Round: 2, Proposer: 1},
		AccProposal: types.ProposalNumber{Round: 2, Proposer: 1},
		Value:       types.Value("v"),
	}
	dec, ok := decodeSlot(s.encode())
	if !ok {
		t.Fatalf("decode failed")
	}
	if !dec.MinProposal.Equal(s.MinProposal) || !dec.AccProposal.Equal(s.AccProposal) || !dec.Value.Equal(s.Value) {
		t.Fatalf("round trip mismatch: %+v", dec)
	}
	if _, ok := decodeSlot(nil); ok {
		t.Fatalf("bottom should not decode")
	}
	if _, ok := decodeSlot(types.Value("garbage")); ok {
		t.Fatalf("garbage should not decode")
	}
}
