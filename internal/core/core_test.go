package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"rdmaagreement/internal/types"
)

func runLeaderProposal(t *testing.T, protocol Protocol, opts Options) Result {
	t.Helper()
	cluster, err := NewCluster(protocol, opts)
	if err != nil {
		t.Fatalf("NewCluster(%s): %v", protocol, err)
	}
	t.Cleanup(cluster.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := cluster.Proposer(cluster.Leader()).Propose(ctx, types.Value("integration"))
	if err != nil {
		t.Fatalf("Propose(%s): %v", protocol, err)
	}
	return res
}

func TestEveryProtocolDecidesInCommonCase(t *testing.T) {
	for _, protocol := range Protocols() {
		protocol := protocol
		t.Run(string(protocol), func(t *testing.T) {
			res := runLeaderProposal(t, protocol, Options{Processes: 3, Memories: 3})
			if !res.Value.Equal(types.Value("integration")) {
				t.Fatalf("%s decided %v", protocol, res.Value)
			}
		})
	}
}

func TestCommonCaseDelaysMatchThePaper(t *testing.T) {
	want := map[Protocol]int64{
		ProtocolFastRobust:           2, // Theorem 4.9
		ProtocolProtectedMemoryPaxos: 2, // Theorem 5.1
		ProtocolDiskPaxos:            4, // §1 and Theorem 6.1
		ProtocolPaxos:                4, // two message round trips
		ProtocolFastPaxos:            2, // fast round
	}
	for protocol, delays := range want {
		protocol, delays := protocol, delays
		t.Run(string(protocol), func(t *testing.T) {
			res := runLeaderProposal(t, protocol, Options{Processes: 3, Memories: 3})
			if res.DecisionDelays != delays {
				t.Fatalf("%s decided in %d delays, paper says %d", protocol, res.DecisionDelays, delays)
			}
		})
	}
}

func TestUnknownProtocolRejected(t *testing.T) {
	if _, err := NewCluster(Protocol("nonsense"), Options{}); err == nil {
		t.Fatalf("unknown protocol accepted")
	}
}

func TestCrashHelpers(t *testing.T) {
	cluster, err := NewCluster(ProtocolProtectedMemoryPaxos, Options{Processes: 2, Memories: 3})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(cluster.Close)
	crashed := cluster.CrashMemories(1)
	if len(crashed) != 1 {
		t.Fatalf("CrashMemories returned %v", crashed)
	}
	cluster.CrashProcess(2)
	if !cluster.Network.ProcessCrashed(2) {
		t.Fatalf("CrashProcess did not mark the process crashed")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := cluster.Proposer(1).Propose(ctx, types.Value("despite-crashes"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if !res.Value.Equal(types.Value("despite-crashes")) {
		t.Fatalf("decided %v", res.Value)
	}
}

func TestLeaderChange(t *testing.T) {
	cluster, err := NewCluster(ProtocolProtectedMemoryPaxos, Options{Processes: 3, Memories: 3})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(cluster.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	first, err := cluster.Proposer(1).Propose(ctx, types.Value("v1"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	cluster.SetLeader(2)
	second, err := cluster.Proposer(2).Propose(ctx, types.Value("v2"))
	if err != nil {
		t.Fatalf("Propose after leader change: %v", err)
	}
	if !second.Value.Equal(first.Value) {
		t.Fatalf("agreement violated across leader change: %v vs %v", first.Value, second.Value)
	}
}

func TestOptionsDefaults(t *testing.T) {
	opts := Options{}
	opts.applyDefaults(ProtocolFastRobust)
	if opts.Processes != 3 || opts.Memories != 3 || opts.Leader != 1 {
		t.Fatalf("unexpected defaults: %+v", opts)
	}
	if opts.FaultyProcesses != 1 || opts.FaultyMemories != 1 {
		t.Fatalf("unexpected failure bounds: %+v", opts)
	}
	crash := Options{Processes: 4, Memories: 5}
	crash.applyDefaults(ProtocolProtectedMemoryPaxos)
	if crash.FaultyProcesses != 3 || crash.FaultyMemories != 2 {
		t.Fatalf("crash-protocol defaults wrong: %+v", crash)
	}
}

// TestReleaseSlotsFreesRegionsAndEngineState decides one slot through the
// cluster's engines and releases it: the slot's region goes from every
// memory and its state from every engine, exactly once.
func TestReleaseSlotsFreesRegionsAndEngineState(t *testing.T) {
	cluster, err := NewCluster(ProtocolProtectedMemoryPaxos, Options{Processes: 3, Memories: 3, InstancesOnly: true})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	base := cluster.LiveRegions()
	if _, err := cluster.Engine(1).Propose(ctx, 7, types.Value("v"), false); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	for _, p := range cluster.Procs {
		if _, err := cluster.Engine(p).WaitDecision(ctx, 7); err != nil {
			t.Fatalf("WaitDecision at %v: %v", p, err)
		}
	}
	if got := cluster.LiveRegions(); got != base+3 {
		t.Fatalf("LiveRegions() = %d after deciding a slot, want %d (one slot region per memory)", got, base+3)
	}
	if released := cluster.ReleaseSlots(7, 7); released != 3 {
		t.Fatalf("ReleaseSlots released %d regions, want 3", released)
	}
	if got := cluster.LiveRegions(); got != base {
		t.Fatalf("LiveRegions() = %d after ReleaseSlots, want %d", got, base)
	}
	for _, p := range cluster.Procs {
		if n := cluster.Engine(p).Slots(); n != 0 {
			t.Fatalf("engine %v holds %d slots after release, want 0", p, n)
		}
	}
	if released := cluster.ReleaseSlots(7, 7); released != 0 {
		t.Fatalf("second ReleaseSlots released %d regions, want 0", released)
	}
}

// TestReleaseSlotsNoOpForMessagePassing: only Protected Memory Paxos runs
// slot engines; other clusters have none and release nothing.
func TestReleaseSlotsNoOpForMessagePassing(t *testing.T) {
	cluster, err := NewCluster(ProtocolPaxos, Options{Processes: 3, Memories: 3, InstancesOnly: true})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cluster.Close()
	if e := cluster.Engine(1); e != nil {
		t.Fatalf("paxos cluster has a slot engine")
	}
	if released := cluster.ReleaseSlots(0, 3); released != 0 {
		t.Fatalf("ReleaseSlots on paxos released %d regions, want 0", released)
	}
}

// TestOpenSlotBookkeeping holds two slot proposals open on a stalled fabric:
// LiveInstances counts them, and PeakInstances keeps the high-water mark
// after they end.
func TestOpenSlotBookkeeping(t *testing.T) {
	cluster, err := NewCluster(ProtocolProtectedMemoryPaxos, Options{Processes: 3, Memories: 3, InstancesOnly: true})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cluster.Close()
	if live := cluster.LiveInstances(); live != 0 {
		t.Fatalf("LiveInstances() = %d at start, want 0", live)
	}
	cluster.CrashMemories(3) // every proposal hangs until cancelled
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for slot, p := range map[uint64]types.ProcID{1: 1, 2: 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = cluster.Engine(p).Propose(ctx, slot, types.Value("v"), p != 1)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for cluster.LiveInstances() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("LiveInstances() = %d with two proposals open, want 2", cluster.LiveInstances())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	if live, peak := cluster.LiveInstances(), cluster.PeakInstances(); live != 0 || peak != 2 {
		t.Fatalf("LiveInstances()/PeakInstances() = %d/%d after both ended, want 0/2", live, peak)
	}
}

// TestLeaseRuntimeElectsOnCrash wires a lease-enabled cluster and crashes the
// lease holder's process on the network: its heartbeats stop, the lease
// expires, and the runtime must elect the smallest surviving process under a
// bumped epoch — while a healthy holder is never deposed.
func TestLeaseRuntimeElectsOnCrash(t *testing.T) {
	cluster, err := NewCluster(ProtocolProtectedMemoryPaxos, Options{
		Processes: 3, Memories: 3, InstancesOnly: true, LeaseDuration: 120 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(cluster.Close)

	if holder, epoch := cluster.LeaseHolder(), cluster.LeaseEpoch(); holder != 1 || epoch != 1 {
		t.Fatalf("initial lease = holder %v epoch %d, want holder 1 epoch 1", holder, epoch)
	}
	// A healthy holder keeps renewing: no takeover across several lease
	// lengths.
	time.Sleep(4 * cluster.Opts.LeaseDuration)
	if got := cluster.LeaseTakeovers(); got != 0 {
		t.Fatalf("healthy holder was deposed %d times", got)
	}

	cluster.CrashProcess(1)
	deadline := time.Now().Add(10 * time.Second)
	for cluster.LeaseEpoch() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no takeover %v after crashing the holder (lease %+v)", 10*time.Second, cluster.Lease())
		}
		time.Sleep(10 * time.Millisecond)
	}
	lease := cluster.Lease()
	if lease.Holder != 2 {
		t.Fatalf("takeover elected %v, want the smallest survivor 2 (lease %+v)", lease.Holder, lease)
	}
	if !lease.Valid(time.Now()) && cluster.LeaseEpoch() == lease.Epoch {
		t.Fatalf("takeover lease not renewed by the new holder: %+v", lease)
	}
	if cluster.Leader() != lease.Holder {
		t.Fatalf("Leader() = %v does not follow the lease holder %v", cluster.Leader(), lease.Holder)
	}
}

// TestLeaseRuntimePartitionedHolderDeposed partitions the lease holder away
// from every follower: its heartbeats reach only itself, which is not a
// grant, so the lease must expire and a follower on the majority side must
// take over.
func TestLeaseRuntimePartitionedHolderDeposed(t *testing.T) {
	cluster, err := NewCluster(ProtocolProtectedMemoryPaxos, Options{
		Processes: 3, Memories: 3, InstancesOnly: true, LeaseDuration: 120 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(cluster.Close)

	cluster.Network.Partition([]types.ProcID{1})
	deadline := time.Now().Add(10 * time.Second)
	for cluster.LeaseEpoch() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("partitioned holder never deposed (lease %+v)", cluster.Lease())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if holder := cluster.LeaseHolder(); holder == 1 {
		t.Fatalf("takeover kept the partitioned holder %v", holder)
	}
}
