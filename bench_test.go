package rdmaagreement

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// benchProposal builds a cluster of the given protocol, runs one leader
// proposal per iteration (one cluster per iteration, mutated by mutate before
// proposing), and reports the causal delay count as a custom metric.
func benchProposal(b *testing.B, protocol Protocol, opts Options, mutate func(*Cluster)) {
	b.Helper()
	var lastDelays int64
	for i := 0; i < b.N; i++ {
		cluster, err := NewCluster(protocol, opts)
		if err != nil {
			b.Fatalf("NewCluster(%s): %v", protocol, err)
		}
		if mutate != nil {
			mutate(cluster)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		res, err := cluster.Proposer(cluster.Leader()).Propose(ctx, Value("bench"))
		cancel()
		cluster.Close()
		if err != nil {
			b.Fatalf("Propose(%s): %v", protocol, err)
		}
		lastDelays = res.DecisionDelays
	}
	b.ReportMetric(float64(lastDelays), "delays/decision")
}

// BenchmarkE1DecisionDelays regenerates experiment E1: common-case decision
// latency and delay counts for every protocol (paper Theorems 4.9 and 5.1,
// §1 comparison).
func BenchmarkE1DecisionDelays(b *testing.B) {
	for _, protocol := range Protocols() {
		protocol := protocol
		b.Run(string(protocol), func(b *testing.B) {
			benchProposal(b, protocol, Options{Processes: 3, Memories: 3}, nil)
		})
	}
}

// BenchmarkE2ByzantineResilience regenerates experiment E2: Fast & Robust
// with n = 2f_P+1 processes, failure-free fast path (Table 1, "This paper").
func BenchmarkE2ByzantineResilience(b *testing.B) {
	for _, f := range []int{1, 2} {
		f := f
		b.Run(fmt.Sprintf("n=%d_f=%d", 2*f+1, f), func(b *testing.B) {
			benchProposal(b, ProtocolFastRobust, Options{Processes: 2*f + 1, Memories: 3, FaultyProcesses: f}, nil)
		})
	}
}

// BenchmarkE3CrashResilience regenerates experiment E3: Protected Memory
// Paxos deciding while every process but the leader is crashed and a minority
// of memories is down (Theorem 5.1: n ≥ f_P+1, m ≥ 2f_M+1).
func BenchmarkE3CrashResilience(b *testing.B) {
	for _, n := range []int{2, 3, 5} {
		n := n
		b.Run(fmt.Sprintf("n=%d_crash=%d", n, n-1), func(b *testing.B) {
			benchProposal(b, ProtocolProtectedMemoryPaxos, Options{Processes: n, Memories: 3}, func(c *Cluster) {
				for _, p := range c.Procs {
					if p != c.Leader() {
						c.CrashProcess(p)
					}
				}
				c.CrashMemories(1)
			})
		})
	}
}

// BenchmarkE4AlignedMajority regenerates experiment E4: Aligned Paxos
// deciding with different minority mixes of crashed processes and memories
// (§5.2).
func BenchmarkE4AlignedMajority(b *testing.B) {
	cases := []struct {
		name           string
		n, m           int
		crashP, crashM int
	}{
		{"memory-heavy", 3, 4, 0, 3},
		{"process-heavy", 4, 3, 3, 0},
		{"balanced", 3, 3, 1, 1},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			benchProposal(b, ProtocolAlignedPaxos, Options{Processes: tc.n, Memories: tc.m}, func(c *Cluster) {
				crashed := 0
				for _, p := range c.Procs {
					if crashed == tc.crashP {
						break
					}
					if p != c.Leader() {
						c.CrashProcess(p)
						crashed++
					}
				}
				c.CrashMemories(tc.crashM)
			})
		})
	}
}

// BenchmarkE5StaticPermissionLowerBound regenerates experiment E5: the
// delay gap between static-permission Disk Paxos and dynamic-permission
// Protected Memory Paxos on an identical topology (Theorem 6.1).
func BenchmarkE5StaticPermissionLowerBound(b *testing.B) {
	for _, protocol := range []Protocol{ProtocolDiskPaxos, ProtocolProtectedMemoryPaxos} {
		protocol := protocol
		b.Run(string(protocol), func(b *testing.B) {
			benchProposal(b, protocol, Options{Processes: 3, Memories: 3}, nil)
		})
	}
}

// BenchmarkE6SignatureCost regenerates experiment E6: signatures consumed by
// a fast-path decision (§4.2: a single signature suffices).
func BenchmarkE6SignatureCost(b *testing.B) {
	var signs int64
	for i := 0; i < b.N; i++ {
		cluster, err := NewCluster(ProtocolFastRobust, Options{Processes: 3, Memories: 3})
		if err != nil {
			b.Fatalf("NewCluster: %v", err)
		}
		cluster.Ring.Counters().Reset()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		_, err = cluster.Proposer(cluster.Leader()).Propose(ctx, Value("bench"))
		cancel()
		signs = cluster.Ring.Counters().Signs()
		cluster.Close()
		if err != nil {
			b.Fatalf("Propose: %v", err)
		}
	}
	b.ReportMetric(float64(signs), "signatures/decision")
}

// BenchmarkE7AbortPath regenerates experiment E7: a silent fast-path leader
// forces Fast & Robust through panic, permission revocation and the backup
// path (§4.3, Lemmas 4.6–4.8).
func BenchmarkE7AbortPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cluster, err := NewCluster(ProtocolFastRobust, Options{
			Processes: 3, Memories: 3, FastTimeout: 20 * time.Millisecond,
		})
		if err != nil {
			b.Fatalf("NewCluster: %v", err)
		}
		cluster.SetLeader(2)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		type outcome struct {
			res Result
			err error
		}
		results := make(chan outcome, 2)
		for _, p := range []ProcID{2, 3} {
			go func(p ProcID) {
				res, err := cluster.Proposer(p).Propose(ctx, Value("bench"))
				results <- outcome{res: res, err: err}
			}(p)
		}
		var first Result
		for j := 0; j < 2; j++ {
			out := <-results
			if out.err != nil {
				cancel()
				cluster.Close()
				b.Fatalf("Propose: %v", out.err)
			}
			if j == 0 {
				first = out.res
			} else if !out.res.Value.Equal(first.Value) {
				cancel()
				cluster.Close()
				b.Fatalf("agreement violated on the abort path")
			}
		}
		cancel()
		cluster.Close()
	}
}

// BenchmarkE8LatencySweep regenerates experiment E8: wall-clock decision
// latency of a 2-delay protocol versus a 4-delay protocol as the simulated
// per-operation latency grows (the ≈2δ vs ≈4δ shape from §1).
func BenchmarkE8LatencySweep(b *testing.B) {
	for _, delta := range []time.Duration{100 * time.Microsecond, time.Millisecond} {
		for _, protocol := range []Protocol{ProtocolProtectedMemoryPaxos, ProtocolDiskPaxos} {
			protocol, delta := protocol, delta
			b.Run(fmt.Sprintf("%s/delta=%s", protocol, delta), func(b *testing.B) {
				benchProposal(b, protocol, Options{Processes: 3, Memories: 3, MemoryLatency: 2 * delta}, nil)
			})
		}
	}
}

// BenchmarkE9MemoryFailures regenerates experiment E9: deciding while a
// minority of memories is crashed (the zombie-server motivation of §7).
func BenchmarkE9MemoryFailures(b *testing.B) {
	for _, protocol := range []Protocol{ProtocolFastRobust, ProtocolProtectedMemoryPaxos} {
		protocol := protocol
		b.Run(string(protocol), func(b *testing.B) {
			benchProposal(b, protocol, Options{Processes: 3, Memories: 3}, func(c *Cluster) {
				c.CrashMemories(1)
			})
		})
	}
}

// BenchmarkE10NonEquivBroadcast regenerates experiment E10 at the cluster
// level: end-to-end cost of one Fast & Robust backup-path decision, which is
// dominated by non-equivocating broadcast traffic, compared with a fast-path
// decision that avoids it.
func BenchmarkE10NonEquivBroadcast(b *testing.B) {
	b.Run("fast-path", func(b *testing.B) {
		benchProposal(b, ProtocolFastRobust, Options{Processes: 3, Memories: 3}, nil)
	})
}

// BenchmarkLogAppend measures replicated-log throughput over ONE long-lived
// cluster (the smr subsystem): sequential appends pay one slot each, while
// concurrent appends amortize slots over batches.
func BenchmarkLogAppend(b *testing.B) {
	newBenchLog := func(b *testing.B) *Log {
		b.Helper()
		l, err := NewLog(LogOptions{Cluster: Options{Processes: 3, Memories: 3}})
		if err != nil {
			b.Fatalf("NewLog: %v", err)
		}
		b.Cleanup(l.Close)
		return l
	}
	b.Run("sequential", func(b *testing.B) {
		l := newBenchLog(b)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := l.Propose(ctx, []byte("bench")); err != nil {
				b.Fatalf("Propose: %v", err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(l.Len())/float64(l.Slots()), "cmds/slot")
	})
	b.Run("concurrent", func(b *testing.B) {
		l := newBenchLog(b)
		ctx := context.Background()
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, err := l.Propose(ctx, []byte("bench")); err != nil {
					b.Errorf("Propose: %v", err) // Fatalf must not run off the benchmark goroutine
					return
				}
			}
		})
		b.StopTimer()
		if slots := l.Slots(); slots > 0 {
			b.ReportMetric(float64(l.Len())/float64(slots), "cmds/slot")
		}
	})
	// Pipelined appends: identical configs except the pipeline depth, in the
	// latency-bound regime the paper targets (slot cost ≈ memory round
	// trips). The batch is bounded so concurrent submitters produce several
	// batches, which is what a pipeline can overlap: at depth 1 the slots
	// serialize, at depth 4 up to four slots hide each other's fabric
	// latency while the reorder buffer keeps commit order gap-free. Depth 4
	// is expected ≥ 1.5x the depth-1 rate.
	for _, depth := range []int{1, 4} {
		depth := depth
		b.Run(fmt.Sprintf("pipeline=%d", depth), func(b *testing.B) {
			l, err := NewLog(LogOptions{
				Cluster:  Options{Processes: 3, Memories: 3, MemoryLatency: time.Millisecond},
				MaxBatch: 2,
				Pipeline: depth,
			})
			if err != nil {
				b.Fatalf("NewLog: %v", err)
			}
			b.Cleanup(l.Close)
			ctx := context.Background()
			b.SetParallelism(16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, _, err := l.Propose(ctx, []byte("bench")); err != nil {
						b.Errorf("Propose: %v", err) // Fatalf must not run off the benchmark goroutine
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(l.Cluster().PeakInstances()), "peak-slots-in-flight")
		})
	}
}

// BenchmarkShardedKV measures aggregate put throughput as the key space is
// sharded over more independent replicated-log groups: appends/sec scale
// with the shard count because unrelated keys commit in parallel.
//
// The memories simulate a per-operation latency (the regime the paper
// targets: decision cost dominated by hardware round trips, not CPU), and
// the per-group batch is bounded, so a single group saturates at
// MaxBatch/slot-time and additional shards multiply the ceiling.
func BenchmarkShardedKV(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			kv, err := NewShardedKV(ShardedKVOptions{
				Shards: shards,
				Log: LogOptions{
					Cluster:  Options{Processes: 3, Memories: 3, MemoryLatency: 2 * time.Millisecond},
					MaxBatch: 4,
				},
			})
			if err != nil {
				b.Fatalf("NewShardedKV: %v", err)
			}
			b.Cleanup(kv.Close)
			ctx := context.Background()
			var seq atomic.Int64
			b.SetParallelism(32)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					key := fmt.Sprintf("user/%d", i)
					if _, _, err := kv.Put(ctx, key, "bench"); err != nil {
						b.Errorf("Put: %v", err) // Fatalf must not run off the benchmark goroutine
						return
					}
				}
			})
		})
	}
}

// BenchmarkLogRead measures the three read paths of a replicated
// state-machine group: Read without a lease pays a read-index barrier (one
// no-op slot commit, or a ride on a concurrent batch); Read under a healthy
// lease serves locally with the same linearizability guarantee and zero
// slots; StaleRead answers from the leader's local view with no guarantee
// and no consensus round at all.
func BenchmarkLogRead(b *testing.B) {
	newReadLog := func(b *testing.B, lease time.Duration) *Log {
		b.Helper()
		l, err := NewLog(LogOptions{
			Cluster: Options{Processes: 3, Memories: 3, LeaseDuration: lease},
			NewSM:   func() StateMachine { return &counterMachine{} },
		})
		if err != nil {
			b.Fatalf("NewLog: %v", err)
		}
		b.Cleanup(l.Close)
		ctx := context.Background()
		if _, _, err := l.Propose(ctx, []byte("seed")); err != nil {
			b.Fatalf("Propose: %v", err)
		}
		return l
	}
	b.Run("linearizable", func(b *testing.B) {
		l := newReadLog(b, 0)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Read(ctx, nil); err != nil {
				b.Fatalf("Read: %v", err)
			}
		}
	})
	b.Run("lease", func(b *testing.B) {
		l := newReadLog(b, 500*time.Millisecond)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Read(ctx, nil); err != nil {
				b.Fatalf("Read: %v", err)
			}
		}
		b.StopTimer()
		if stats := l.Stats(); stats.BarrierReads > stats.LeaseReads {
			b.Fatalf("lease bench mostly fell back to barriers: %d barrier vs %d lease reads", stats.BarrierReads, stats.LeaseReads)
		}
	})
	b.Run("stale", func(b *testing.B) {
		l := newReadLog(b, 0)
		leader := l.Cluster().Leader()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.StaleRead(leader, nil); err != nil {
				b.Fatalf("StaleRead: %v", err)
			}
		}
	})
}

// benchKVState builds a kvMachine holding n keys shaped like the kvbench
// floor-bigstate workload's: 17-byte keys, 64-byte values.
func benchKVState(n int) *kvMachine {
	m := newKVMachine().(*kvMachine)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%016x", uint64(i)*0x9e3779b97f4a7c15)
		m.state[key] = fmt.Sprintf("%s/%02d/%010d/%029d", key, i%64, i, 0)
	}
	return m
}

// BenchmarkKVSnapshot measures kvMachine.Snapshot — the O(state) pass the
// applier runs every SnapshotInterval entries — at 1k keys (a paper-2ms
// group) and 40k keys (a floor-bigstate group late in a run). Run with
// -benchmem.
func BenchmarkKVSnapshot(b *testing.B) {
	for _, n := range []int{1000, 40000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			m := benchKVState(n)
			snap, _ := m.Snapshot()
			b.SetBytes(int64(len(snap)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKVRestore measures kvMachine.Restore of the same snapshots: the
// cost of bringing a lagging replica view back past a truncation.
func BenchmarkKVRestore(b *testing.B) {
	for _, n := range []int{1000, 40000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			snap, _ := benchKVState(n).Snapshot()
			m := newKVMachine()
			b.SetBytes(int64(len(snap)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Restore(snap, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
