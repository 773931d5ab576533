// Package pmpaxos implements Protected Memory Paxos (Algorithm 7, §5.1): a
// crash-tolerant consensus algorithm for the message-and-memory model that
// needs only n ≥ f_P + 1 processes and m ≥ 2f_M + 1 memories and decides in
// two delays in the common case (Theorem 5.1).
//
// The algorithm keeps Disk Paxos's structure but uses dynamic permissions to
// skip Disk Paxos's final read: at any time exactly one process holds write
// permission on each memory, so a leader whose phase-2 write succeeds knows
// that no other leader has taken over (the other leader would have stolen the
// permission first), and can decide immediately. The initial leader holds the
// permission from the start and therefore decides after a single parallel
// write to the memories — two delays.
//
// Each memory holds one region per consensus instance with a slot per
// process; only the current permission holder can write (each process writes
// only its own slot), and every process can read every slot.
//
// The protocol runs in an Engine: one long-lived participant per process that
// decides any number of instances (log slots), keyed by slot index, over one
// decide subscription. A Node is the stand-alone single-shot instance — an
// engine pinned to one pre-laid-out region.
package pmpaxos

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"rdmaagreement/internal/delayclock"
	"rdmaagreement/internal/memsim"
	"rdmaagreement/internal/netsim"
	"rdmaagreement/internal/omega"
	"rdmaagreement/internal/trace"
	"rdmaagreement/internal/types"
)

// Region is the single region each memory dedicates to the protocol when it
// runs as a stand-alone single-shot instance.
const Region = types.RegionID("pmpaxos")

// DecideKind is the message kind used to broadcast decisions to learners of
// the stand-alone instance.
const DecideKind = "pmpaxos/decide"

// SlotDecideKind is the one message kind of every slot engine's decide
// broadcasts; the payload's header carries the slot index.
const SlotDecideKind = "pmpaxos/slot"

// instanceRegionPrefix scopes the regions of multiplexed consensus instances
// (log slots) so that an unbounded sequence of instances can share one memory
// pool without colliding.
const instanceRegionPrefix = "pmpaxos/slot/"

// RegionFor names the region of consensus instance slot.
func RegionFor(slot uint64) types.RegionID {
	buf := make([]byte, 0, len(instanceRegionPrefix)+20)
	buf = append(buf, instanceRegionPrefix...)
	return types.RegionID(strconv.AppendUint(buf, slot, 10))
}

// slotRegister names the slot of process p.
func slotRegister(p types.ProcID) types.RegisterID {
	return types.RegisterID("slot/" + strconv.Itoa(int(p)))
}

// Layout returns the per-memory region layout: one region containing one slot
// per process, initially writable only by the initial leader and readable by
// everyone.
func Layout(procs []types.ProcID, initialLeader types.ProcID) []memsim.RegionSpec {
	return []memsim.RegionSpec{RegionSpecFor(Region, procs, initialLeader)}
}

// RegionSpecFor builds the protocol's region layout under an arbitrary region
// identifier: one slot register per process, initially writable only by the
// initial leader and readable by everyone else.
func RegionSpecFor(region types.RegionID, procs []types.ProcID, initialLeader types.ProcID) memsim.RegionSpec {
	regs := make([]types.RegisterID, 0, len(procs))
	for _, p := range procs {
		regs = append(regs, slotRegister(p))
	}
	return memsim.RegionSpec{ID: region, Registers: regs, Perm: exclusiveFor(procs, initialLeader)}
}

// exclusiveFor is the permission that makes p the only writer while every
// other process keeps read access: a region's initial layout for its leader,
// and what a phase-1 takeover installs.
func exclusiveFor(procs []types.ProcID, p types.ProcID) memsim.Permission {
	readers := types.NewProcSet()
	for _, q := range procs {
		if q != p {
			readers[q] = struct{}{}
		}
	}
	return memsim.NewPermission(readers, nil, types.NewProcSet(p))
}

// LegalChange returns the permission-change policy: a process may only make
// itself the exclusive writer while leaving every other process able to read
// (the "acquire write permission" step of Algorithm 7). The policy covers the
// stand-alone region and every per-slot instance region, so one long-lived
// memory pool can serve an unbounded log of instances.
func LegalChange(procs []types.ProcID) memsim.LegalChangeFunc {
	exclusive := memsim.ExclusiveWriterPolicy(procs)
	return func(p types.ProcID, region types.RegionID, old, new memsim.Permission) bool {
		if region == Region || strings.HasPrefix(string(region), instanceRegionPrefix) {
			return exclusive(p, region, old, new)
		}
		return memsim.StaticPermissions(p, region, old, new)
	}
}

// Config configures a stand-alone, single-shot Protected Memory Paxos
// participant (Node).
type Config struct {
	// Self is this process.
	Self types.ProcID
	// Procs is the full process set. Protected Memory Paxos requires only
	// n ≥ f_P + 1: consensus is reached as long as at least one process is
	// alive, because processes never need to hear from each other.
	Procs []types.ProcID
	// InitialLeader is the process holding write permission at start (p1).
	InitialLeader types.ProcID
	// FaultyMemories is f_M; m ≥ 2f_M+1.
	FaultyMemories int
	// Memories is the memory pool laid out with Layout/LegalChange.
	Memories []*memsim.Memory
	// Oracle is the Ω leader oracle (liveness only). Nil means the process
	// always considers itself leader.
	Oracle omega.Oracle
	// Endpoint and DecideSub, if set, are used to broadcast and learn
	// decisions (kind DecideKind) so that all correct processes terminate,
	// as suggested in the paper's termination proof. They are optional:
	// Propose works without them.
	Endpoint  *netsim.Endpoint
	DecideSub <-chan netsim.Message
	// RetryDelay is the pause before retrying a preempted proposal. Zero
	// means 10ms.
	RetryDelay time.Duration
	// Clock is the causal delay clock; nil allocates a private one.
	Clock *delayclock.Clock
	// Recorder receives trace events; may be nil.
	Recorder *trace.Recorder
}

// Validate checks the resilience bounds.
func (c *Config) Validate() error {
	if err := validate(c.Procs, c.Memories, c.FaultyMemories); err != nil {
		return err
	}
	if c.InitialLeader == types.NoProcess {
		return fmt.Errorf("%w: an initial leader is required", types.ErrInvalidConfig)
	}
	return nil
}

func validate(procs []types.ProcID, memories []*memsim.Memory, faultyMemories int) error {
	if len(procs) < 1 {
		return fmt.Errorf("%w: at least one process is required", types.ErrInvalidConfig)
	}
	if len(memories) < 2*faultyMemories+1 {
		return fmt.Errorf("%w: m=%d cannot tolerate f_M=%d (need m ≥ 2f_M+1)",
			types.ErrInvalidConfig, len(memories), faultyMemories)
	}
	return nil
}

// Outcome reports a Protected Memory Paxos decision.
type Outcome struct {
	// Value is the decided value.
	Value types.Value
	// DecisionDelays is the causal delay count along the decider's own
	// operation chain (2 for the initial leader in the common case). Zero
	// when the decision was learned rather than decided by this call.
	DecisionDelays int64
	// Rounds is the number of proposal rounds the decider needed.
	Rounds int
	// Phase1 reports that the deciding round ran phase 1 — acquired write
	// permission, published its ballot and read every slot — instead of the
	// initial leader's single-write fast path. False when the decision was
	// learned rather than decided by this call.
	Phase1 bool
}

// Node is one stand-alone Protected Memory Paxos participant: a slot engine
// pinned to the single region Layout installs, deciding instance 0.
type Node struct {
	e *Engine
}

// New creates a stand-alone Protected Memory Paxos participant.
func New(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("protected memory paxos: %w", err)
	}
	e, err := NewEngine(EngineConfig{
		Self:           cfg.Self,
		Procs:          cfg.Procs,
		FaultyMemories: cfg.FaultyMemories,
		Memories:       cfg.Memories,
		Oracle:         cfg.Oracle,
		Region:         Region,
		InitialLeader:  cfg.InitialLeader,
		Endpoint:       cfg.Endpoint,
		DecideSub:      cfg.DecideSub,
		DecideKind:     DecideKind,
		RetryDelay:     cfg.RetryDelay,
		Clock:          cfg.Clock,
		Recorder:       cfg.Recorder,
	})
	if err != nil {
		return nil, err
	}
	return &Node{e: e}, nil
}

// Start launches the decision-learning loop when an endpoint was configured.
// It is a no-op otherwise. Stop terminates it.
func (n *Node) Start() { n.e.Start() }

// Stop terminates the learning loop, if any.
func (n *Node) Stop() { n.e.Stop() }

// Clock returns the node's delay clock.
func (n *Node) Clock() *delayclock.Clock { return n.e.Clock() }

// Decided returns the learned decision, if any.
func (n *Node) Decided() (types.Value, bool) { return n.e.Decided(0) }

// WaitDecision blocks until this process learns a decision (through its own
// proposal or a decide broadcast).
func (n *Node) WaitDecision(ctx context.Context) (types.Value, error) {
	return n.e.WaitDecision(ctx, 0)
}

// Propose runs the proposer until it decides, and returns the decision. Any
// process may propose; resilience to process crashes is total (n ≥ f_P + 1)
// because proposers never wait for other processes.
func (n *Node) Propose(ctx context.Context, v types.Value) (Outcome, error) {
	return n.e.Propose(ctx, 0, v, false)
}
