package chaos

import (
	"testing"
	"time"
)

// Regression seeds. Each entry is a schedule that once exposed a bug (or
// guards a path that nearly shipped one) and now must stay green forever.
// Adding a line here is the whole workflow for committing a failing seed
// from cmd/agreementchaos: copy the -seed and flags from the repro line.
//
//   - seed 7 served: exposed the tenant-namespace split — in-process clients
//     hit raw keys while the serving layer prefixed the default tenant, so
//     the two paths wrote disjoint registers under one recorded name and
//     every key flip-flopped. Fixed by routing in-process ops through the
//     same tenant mapping (runner.storeKey).
//   - seed 7 in-process: the full five-kind fault mix (memcrash, stall,
//     jitter, transfer) against the embedded store.
//   - seed 11: a second fault ordering, kept as a diversity guard.
//   - seed 19 batch-boundary: adaptive group commit forced to its count
//     budget (batch ≤ 3, a 2ms coalescing horizon keeps every cut full)
//     under a schedule with two explicit lease transfers and two stalls,
//     so takeovers displace max-size batches mid-flight — the re-dispatch
//     path must replay the whole batch at a later slot exactly once, with
//     no lost or doubled command.
//   - seed 29 snapshot-restores: a snapshot every 8 entries under memory
//     crashes and lease-holder stalls, so replica views that fall behind a
//     truncation are restored from binary snapshots (the kvMachine payload
//     inside the groupSM gate) while the workload runs; the run must restore
//     at least one view and still linearize.
var regressionSeeds = []struct {
	name string
	cfg  Config
	// restores requires the run to restore at least one lagging view from
	// a snapshot: the seed exists to exercise that path.
	restores bool
}{
	{"seed7-inproc", Config{Seed: 7, Window: 1500 * time.Millisecond}, false},
	{"seed7-served", Config{Seed: 7, Window: 1500 * time.Millisecond, Served: true}, false},
	{"seed11-inproc", Config{Seed: 11, Window: 1500 * time.Millisecond}, false},
	{"seed19-batch-boundary", Config{Seed: 19, Window: 1500 * time.Millisecond, Batch: 3, BatchWait: 2 * time.Millisecond}, false},
	{"seed29-snapshot-restores", Config{Seed: 29, Window: 1500 * time.Millisecond, SnapshotInterval: 8, Faults: []string{KindMemCrash, KindStall}}, true},
}

// TestRegressionSeeds replays every committed seed and requires a clean
// linearizability verdict. These run as ordinary go tests, so tier-1 CI
// replays each historical failure on every PR.
func TestRegressionSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos regression seeds need multi-second fault windows")
	}
	for _, tc := range regressionSeeds {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatalf("run failed: %v\nrepro: %s", err, tc.cfg.ReproLine())
			}
			if !res.Linearizable {
				for _, v := range res.Violations {
					t.Errorf("violation:\n%s", v.Report())
				}
				t.Fatalf("history not linearizable (%d violating keys)\nrepro: %s",
					len(res.Violations), tc.cfg.ReproLine())
			}
			if res.Ops == 0 {
				t.Fatalf("workload recorded no operations")
			}
			if len(res.Faults) == 0 {
				t.Fatalf("schedule injected no faults")
			}
			if tc.restores && res.Restores == 0 {
				t.Fatalf("no replica view was restored from a snapshot\nrepro: %s", tc.cfg.ReproLine())
			}
		})
	}
}

// TestRunRejectsBadConfig pins the usage-error path cmd/agreementchaos maps
// to exit code 2.
func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Seed: 1, Faults: []string{"no-such-kind"}}); err == nil {
		t.Fatalf("unknown fault kind must be rejected")
	}
}
