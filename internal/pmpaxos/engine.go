package pmpaxos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rdmaagreement/internal/delayclock"
	"rdmaagreement/internal/memsim"
	"rdmaagreement/internal/metrics"
	"rdmaagreement/internal/netsim"
	"rdmaagreement/internal/omega"
	"rdmaagreement/internal/trace"
	"rdmaagreement/internal/types"
)

// ErrSlotReleased reports an operation on a slot the engine has already
// released (the replicated log truncated it into a snapshot).
var ErrSlotReleased = errors.New("pmpaxos: slot released")

// EngineConfig configures a slot engine.
type EngineConfig struct {
	// Self is this process.
	Self types.ProcID
	// Procs is the full process set (n ≥ f_P + 1).
	Procs []types.ProcID
	// FaultyMemories is f_M; m ≥ 2f_M+1.
	FaultyMemories int
	// Memories is the shared memory pool, created with LegalChange.
	Memories []*memsim.Memory
	// Oracle is the Ω leader oracle (liveness only). A regular proposal
	// waits while another process leads, and a slot's region is laid out
	// for Oracle.Leader() when this process first proposes into it. Nil
	// means the process always considers itself leader.
	Oracle omega.Oracle
	// Region, if set, pins every slot to that one region, laid out in
	// advance for InitialLeader: the stand-alone single-shot instance.
	// Empty means slot s lives in RegionFor(s), installed on first proposal
	// and removed with the slot.
	Region        types.RegionID
	InitialLeader types.ProcID
	// Endpoint and DecideSub broadcast and learn decisions. DecideSub must
	// be a subscription to DecideKind. Both are optional: without them a
	// process learns only what it decides itself.
	Endpoint  *netsim.Endpoint
	DecideSub <-chan netsim.Message
	// DecideKind is the decide broadcasts' message kind. Empty means
	// SlotDecideKind.
	DecideKind string
	// RetryDelay is the pause before retrying a preempted proposal. Zero
	// means 10ms.
	RetryDelay time.Duration
	// Clock is the process's causal delay clock; nil allocates one.
	Clock *delayclock.Clock
	// Recorder receives trace events; may be nil.
	Recorder *trace.Recorder
	// Open, if set, counts the proposals in flight. Engines of one cluster
	// share it, so its peak is the most slots ever open at once.
	Open *metrics.Gauge
}

// Engine is one process's long-lived Protected Memory Paxos participant for
// an unbounded sequence of consensus instances (slots). It owns one decide
// subscription and one demultiplexing goroutine; everything else it keeps
// per slot is a small record in a map — the highest ballot seen, the
// first-try flag, the decision and its waiters — created on first touch (a
// proposal, a waiter or an early decide) and freed by Release.
//
// The protocol per slot is exactly Algorithm 7: a slot's region is laid out
// with write permission for the lease holder at the time, that holder's
// first proposal skips phase 1 and decides with one parallel write (two
// delays), and any other proposal — or one made with forcePhase1 — steals the
// permission in phase 1 and adopts the highest accepted value it reads.
type Engine struct {
	cfg     EngineConfig
	quorum  int
	selfReg types.RegisterID
	regs    []types.RegisterID                 // slot register per process, in Procs order
	perms   map[types.ProcID]memsim.Permission // exclusive-writer permission per process

	mu    sync.Mutex
	slots map[uint64]*slotState // guarded by mu
	floor uint64                // guarded by mu; every slot below it is released

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// slotState is one slot's protocol state at this process. Its fields are
// read and written under the owning Engine's mu.
type slotState struct {
	region      types.RegionID // empty until this process lays the slot out
	leader      types.ProcID   // process whose write permission the layout granted
	highestSeen types.ProposalNumber
	tried       bool // a round ran here: the skip-phase-1 first try is spent
	decided     types.Value
	hasDecided  bool
	released    bool
	done        chan struct{} // closed once decided or released
}

// NewEngine creates a slot engine. Call Start to begin learning decisions.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if err := validate(cfg.Procs, cfg.Memories, cfg.FaultyMemories); err != nil {
		return nil, fmt.Errorf("protected memory paxos: %w", err)
	}
	if cfg.DecideKind == "" {
		cfg.DecideKind = SlotDecideKind
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 10 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = &delayclock.Clock{}
	}
	e := &Engine{
		cfg:     cfg,
		quorum:  len(cfg.Memories) - cfg.FaultyMemories,
		selfReg: slotRegister(cfg.Self),
		regs:    make([]types.RegisterID, len(cfg.Procs)),
		perms:   make(map[types.ProcID]memsim.Permission, len(cfg.Procs)),
		slots:   make(map[uint64]*slotState),
	}
	for i, p := range cfg.Procs {
		e.regs[i] = slotRegister(p)
		e.perms[p] = exclusiveFor(cfg.Procs, p)
	}
	return e, nil
}

// Start launches the demultiplexing loop when a decide subscription was
// configured. Stop terminates it.
func (e *Engine) Start() {
	if e.cfg.DecideSub == nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	e.wg.Add(1)
	go e.demux(ctx)
}

// Stop terminates the demultiplexing loop, if any, and waits for it.
func (e *Engine) Stop() {
	if e.cancel != nil {
		e.cancel()
	}
	e.wg.Wait()
}

// Clock returns the process's delay clock.
func (e *Engine) Clock() *delayclock.Clock { return e.cfg.Clock }

func (e *Engine) demux(ctx context.Context) {
	defer e.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case msg := <-e.cfg.DecideSub:
			e.dispatch(msg)
		}
	}
}

// dispatch routes one decide broadcast to its slot. It never blocks: a
// malformed payload names no slot and a decide below the release floor is
// dropped, so a late or garbled message cannot stall the router.
//
//smrlint:noalloc
func (e *Engine) dispatch(msg netsim.Message) {
	slot, v, ok := decodeDecide(msg.Payload)
	if !ok {
		return
	}
	e.cfg.Clock.MergeAfterMessage(msg.Stamp)
	e.learn(slot, v)
}

// touch returns the slot's state, creating it on first touch. It fails for a
// released slot.
func (e *Engine) touch(slot uint64) (*slotState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if slot < e.floor {
		return nil, fmt.Errorf("slot %d at %s: %w", slot, e.cfg.Self, ErrSlotReleased)
	}
	return e.stateLocked(slot), nil
}

//smrlint:holds mu
func (e *Engine) stateLocked(slot uint64) *slotState {
	st := e.slots[slot]
	if st == nil {
		st = &slotState{done: make(chan struct{})}
		if e.cfg.Region != "" {
			st.region, st.leader = e.cfg.Region, e.cfg.InitialLeader
		}
		e.slots[slot] = st
	}
	return st
}

// learn records a decision for slot, waking its waiters. Decisions for
// released slots are dropped rather than bringing their state back.
func (e *Engine) learn(slot uint64, v types.Value) {
	e.mu.Lock()
	if slot < e.floor {
		e.mu.Unlock()
		return
	}
	st := e.stateLocked(slot)
	if st.hasDecided {
		e.mu.Unlock()
		return
	}
	st.decided, st.hasDecided = v, true
	close(st.done)
	e.mu.Unlock()
	if e.cfg.Recorder != nil {
		e.cfg.Recorder.Record(e.cfg.Self, trace.KindDecide, v, e.cfg.Clock.Now(), "protected memory paxos learn (slot %d)", slot)
	}
}

// decision reports the slot's decision, if any, and whether it was released.
func (e *Engine) decision(st *slotState) (types.Value, bool, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return st.decided, st.hasDecided, st.released
}

// Decided returns the decision this process knows for slot, if any. The
// value is shared and must not be modified.
func (e *Engine) Decided(slot uint64) (types.Value, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st := e.slots[slot]; st != nil && st.hasDecided {
		return st.decided, true
	}
	return nil, false
}

// WaitDecision blocks until this process learns slot's decision — through
// its own proposal or a decide broadcast, which may have arrived before the
// call — or ctx ends. The value is shared and must not be modified.
func (e *Engine) WaitDecision(ctx context.Context, slot uint64) (types.Value, error) {
	st, err := e.touch(slot)
	if err != nil {
		return nil, err
	}
	select {
	case <-st.done:
	case <-ctx.Done():
		// Both may be ready; prefer the decision so a learner polled with an
		// already-expired context still reports a value it has learned.
		select {
		case <-st.done:
		default:
			return nil, fmt.Errorf("wait decision of slot %d at %s: %w", slot, e.cfg.Self, ctx.Err())
		}
	}
	v, ok, _ := e.decision(st)
	if !ok {
		return nil, fmt.Errorf("wait decision of slot %d at %s: %w", slot, e.cfg.Self, ErrSlotReleased)
	}
	return v, nil
}

// Release frees the state of every slot up to and including through: their
// waiters fail with ErrSlotReleased and later decides for them are dropped.
// It does not touch memory regions (the cluster releases those once, for all
// processes).
func (e *Engine) Release(through uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if through < e.floor {
		return
	}
	e.floor = through + 1
	for s, st := range e.slots {
		if s >= e.floor {
			continue
		}
		if !st.hasDecided && !st.released {
			close(st.done)
		}
		st.released = true
		delete(e.slots, s)
	}
}

// Slots returns how many slots currently hold state at this process — the
// figure truncation bounds.
func (e *Engine) Slots() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.slots)
}

// layout installs slot's region on every memory, with write permission for
// the current leader, unless the slot already has a region (laid out by this
// process, or pinned by EngineConfig.Region). EnsureRegion never
// resets an existing region, so processes racing to lay out one slot (or a
// recovery re-running a slot the original attempt wrote) are safe: the first
// layout's permission and contents stand.
func (e *Engine) layout(slot uint64, st *slotState) {
	e.mu.Lock()
	laidOut := st.region != ""
	e.mu.Unlock()
	if laidOut {
		return
	}
	leader := e.cfg.Self
	if e.cfg.Oracle != nil {
		if l := e.cfg.Oracle.Leader(); l != types.NoProcess {
			leader = l
		}
	}
	spec := memsim.RegionSpec{ID: RegionFor(slot), Registers: e.regs, Perm: e.perms[leader]}
	for _, mem := range e.cfg.Memories {
		mem.EnsureRegion(spec)
	}
	e.mu.Lock()
	if st.region == "" {
		st.region, st.leader = spec.ID, leader
	}
	e.mu.Unlock()
}

func (e *Engine) isLeader() bool {
	return e.cfg.Oracle == nil || e.cfg.Oracle.Leader() == e.cfg.Self
}

// Propose runs this process's proposer for slot until the slot decides, and
// returns the decision. A regular proposal (forcePhase1 false) waits while
// another process leads and, from the process the slot was laid out for,
// takes the single-write fast path on its first round. forcePhase1 is the
// recovery and epoch-fencing proposal: it proposes regardless of Ω and always
// runs phase 1, so it steals the write permission — fencing any in-flight
// write of a superseded attempt — and adopts the highest accepted value.
// A decision this process already knows is returned without a round. v must
// not be modified after the call.
func (e *Engine) Propose(ctx context.Context, slot uint64, v types.Value, forcePhase1 bool) (Outcome, error) {
	st, err := e.touch(slot)
	if err != nil {
		return Outcome{}, err
	}
	if e.cfg.Open != nil {
		e.cfg.Open.Add(1)
		defer e.cfg.Open.Add(-1)
	}
	e.layout(slot, st)
	if e.cfg.Recorder != nil {
		e.cfg.Recorder.Record(e.cfg.Self, trace.KindPropose, v, e.cfg.Clock.Now(), "protected memory paxos propose (slot %d)", slot)
	}
	rounds := 0
	for {
		value, decided, released := e.decision(st)
		if decided {
			return Outcome{Value: value, Rounds: rounds}, nil
		}
		if released {
			return Outcome{}, fmt.Errorf("propose slot %d at %s: %w", slot, e.cfg.Self, ErrSlotReleased)
		}
		if err := ctx.Err(); err != nil {
			return Outcome{}, fmt.Errorf("propose slot %d at %s: %w", slot, e.cfg.Self, err)
		}
		if !forcePhase1 && !e.isLeader() {
			select {
			case <-st.done:
			case <-time.After(e.cfg.RetryDelay):
			case <-ctx.Done():
			}
			continue
		}
		rounds++
		out, ok, err := e.runRound(ctx, slot, st, v, forcePhase1)
		if err != nil {
			return Outcome{}, err
		}
		if ok {
			out.Rounds = rounds
			return out, nil
		}
		select {
		case <-st.done:
		case <-time.After(e.cfg.RetryDelay):
		case <-ctx.Done():
		}
	}
}

// memoryPhaseResult is the outcome of one memory's participation in a phase.
type memoryPhaseResult struct {
	ok      bool // write permission held and operations acknowledged
	preempt bool // a slot with a higher minProposal was observed
	slots   []slot
	stamp   delayclock.Stamp
	err     error
}

// runRound executes one proposal round (Algorithm 7's repeat body).
func (e *Engine) runRound(ctx context.Context, slotIdx uint64, st *slotState, v types.Value, forcePhase1 bool) (Outcome, bool, error) {
	start := e.cfg.Clock.Now()

	e.mu.Lock()
	ballot := st.highestSeen.Next(e.cfg.Self, st.highestSeen)
	st.highestSeen = ballot
	skipPhase1 := !st.tried && st.leader == e.cfg.Self && !forcePhase1
	st.tried = true
	region := st.region
	e.mu.Unlock()

	myValue := v
	phase2Start := start

	if !skipPhase1 {
		results, err := e.runPhase1(ctx, region, ballot, start)
		if err != nil {
			return Outcome{}, false, err
		}
		var adopt types.Value
		var adoptBallot, highest types.ProposalNumber
		latest := start
		preempted := false
		for _, res := range results {
			if !res.ok || res.preempt {
				preempted = true
			}
			if res.stamp > latest {
				latest = res.stamp
			}
			for _, s := range res.slots {
				// Remember higher proposal numbers so the next round picks a
				// larger one and eventually wins.
				if highest.Less(s.MinProposal) {
					highest = s.MinProposal
				}
				if !s.AccProposal.IsZero() && !s.Value.Bottom() && adoptBallot.Less(s.AccProposal) {
					adoptBallot = s.AccProposal
					adopt = s.Value
				}
			}
		}
		e.mu.Lock()
		if st.highestSeen.Less(highest) {
			st.highestSeen = highest
		}
		e.mu.Unlock()
		if preempted {
			return Outcome{}, false, nil // write permission lost, nak, or a higher proposal observed
		}
		if !adopt.Bottom() {
			myValue = adopt
		}
		phase2Start = latest
	}

	completed, ok, err := e.runPhase2(ctx, region, ballot, myValue, phase2Start)
	if err != nil || !ok {
		return Outcome{}, false, err
	}

	delays := int64(completed - start)
	if e.cfg.Recorder != nil {
		e.cfg.Recorder.Record(e.cfg.Self, trace.KindDecide, myValue, e.cfg.Clock.Now(),
			"protected memory paxos decision in %d delays (slot %d, ballot %s)", delays, slotIdx, ballot)
	}
	e.learn(slotIdx, myValue)
	if e.cfg.Endpoint != nil {
		_ = e.cfg.Endpoint.Broadcast(e.cfg.DecideKind, encodeDecide(slotIdx, myValue), e.cfg.Clock.Now())
	}
	return Outcome{Value: myValue, DecisionDelays: delays, Phase1: !skipPhase1}, true, nil
}

// runPhase1 acquires exclusive write permission on each memory, publishes the
// new proposal number in the proposer's slot and reads every slot. It waits
// for m − f_M memories to complete and returns their results.
func (e *Engine) runPhase1(ctx context.Context, region types.RegionID, ballot types.ProposalNumber, invoked delayclock.Stamp) ([]memoryPhaseResult, error) {
	opCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan memoryPhaseResult, len(e.cfg.Memories))
	for _, mem := range e.cfg.Memories {
		go func(mem *memsim.Memory) {
			results <- e.phase1OnMemory(opCtx, mem, region, ballot, invoked)
		}(mem)
	}
	return e.collect(ctx, results)
}

func (e *Engine) phase1OnMemory(ctx context.Context, mem *memsim.Memory, region types.RegionID, ballot types.ProposalNumber, invoked delayclock.Stamp) memoryPhaseResult {
	var res memoryPhaseResult

	stamp, err := mem.ChangePermission(ctx, e.cfg.Self, region, e.perms[e.cfg.Self], invoked)
	if err != nil {
		res.err = err
		return res
	}
	e.cfg.Clock.Merge(stamp)
	if e.cfg.Recorder != nil {
		e.cfg.Recorder.Record(e.cfg.Self, trace.KindPermissionChange, nil, stamp, "acquired write permission on %s", mem.ID())
	}

	stamp, err = mem.Write(ctx, e.cfg.Self, region, e.selfReg, slot{MinProposal: ballot}.encode(), stamp)
	if err != nil {
		if !errors.Is(err, types.ErrNak) {
			res.err = err
		}
		// A nak means the permission was already stolen again: preemption.
		return res
	}
	e.cfg.Clock.Merge(stamp)

	// Read every process's slot on this memory, in parallel (one round trip).
	type readResult struct {
		s     slot
		ok    bool
		stamp delayclock.Stamp
		err   error
	}
	reads := make(chan readResult, len(e.regs))
	// Snapshot the post-write stamp: the collector below keeps advancing
	// `stamp`, and the read goroutines must not observe those writes (they
	// are all invoked at the same causal point, right after the write).
	readStamp := stamp
	for _, reg := range e.regs {
		go func(reg types.RegisterID) {
			raw, rstamp, rerr := mem.Read(ctx, e.cfg.Self, region, reg, readStamp)
			if rerr != nil {
				reads <- readResult{err: rerr}
				return
			}
			s, ok := decodeSlot(raw)
			reads <- readResult{s: s, ok: ok, stamp: rstamp}
		}(reg)
	}
	for range e.regs {
		r := <-reads
		if r.err != nil {
			res.err = r.err
			return res
		}
		e.cfg.Clock.Merge(r.stamp)
		if r.stamp > stamp {
			stamp = r.stamp
		}
		if !r.ok {
			continue
		}
		if ballot.Less(r.s.MinProposal) {
			res.preempt = true
		}
		res.slots = append(res.slots, r.s)
	}
	res.ok = true
	res.stamp = stamp
	return res
}

// runPhase2 writes the accepted proposal to the proposer's slot on every
// memory and waits for m − f_M acknowledgements. A nak on any completed
// memory means another leader took the permission, so the round is preempted.
func (e *Engine) runPhase2(ctx context.Context, region types.RegionID, ballot types.ProposalNumber, value types.Value, invoked delayclock.Stamp) (delayclock.Stamp, bool, error) {
	blob := slot{MinProposal: ballot, AccProposal: ballot, Value: value}.encode()
	opCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan memoryPhaseResult, len(e.cfg.Memories))
	for _, mem := range e.cfg.Memories {
		go func(mem *memsim.Memory) {
			stamp, werr := mem.Write(opCtx, e.cfg.Self, region, e.selfReg, blob, invoked)
			res := memoryPhaseResult{stamp: stamp}
			switch {
			case werr == nil:
				res.ok = true
				e.cfg.Clock.Merge(stamp)
			case errors.Is(werr, types.ErrNak):
			default:
				res.err = werr
			}
			results <- res
		}(mem)
	}
	collected, err := e.collect(ctx, results)
	if err != nil {
		return invoked, false, err
	}
	completed := invoked
	for _, res := range collected {
		if !res.ok {
			return invoked, false, nil
		}
		if res.stamp > completed {
			completed = res.stamp
		}
	}
	return completed, true, nil
}

// collect waits for m − f_M phase results (errors other than naks, such as a
// crashed memory hanging, do not count toward the quorum).
func (e *Engine) collect(ctx context.Context, results <-chan memoryPhaseResult) ([]memoryPhaseResult, error) {
	collected := make([]memoryPhaseResult, 0, e.quorum)
	for received := 0; received < len(e.cfg.Memories); {
		select {
		case res := <-results:
			received++
			if res.err != nil {
				continue
			}
			collected = append(collected, res)
			if len(collected) >= e.quorum {
				return collected, nil
			}
		case <-ctx.Done():
			return nil, fmt.Errorf("protected memory paxos at %s: %w", e.cfg.Self, ctx.Err())
		}
	}
	return nil, fmt.Errorf("protected memory paxos at %s: only %d of %d memories responded (need %d): %w",
		e.cfg.Self, len(collected), len(e.cfg.Memories), e.quorum, types.ErrMemoryCrashed)
}
