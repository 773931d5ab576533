package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// runRecord runs agreementbench with args plus -json and returns the record's
// fields by their JSON names, the names the CI gates read.
func runRecord(t *testing.T, args ...string) map[string]float64 {
	t.Helper()
	path := filepath.Join(t.TempDir(), "record.json")
	if code := run(append(args, "-json", path)); code != exitOK {
		t.Fatalf("agreementbench %v exited %d", args, code)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	fields := make(map[string]float64)
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			fields[k] = f
		}
	}
	return fields
}

// require fails the test for every named field below its floor, or absent.
func require(t *testing.T, rec map[string]float64, floors map[string]float64) {
	t.Helper()
	for name, floor := range floors {
		if v, ok := rec[name]; !ok || v < floor {
			t.Errorf("%s = %v (present %v), want >= %v", name, v, ok, floor)
		}
	}
}

// requireZero fails the test for every named field that is absent or nonzero.
func requireZero(t *testing.T, rec map[string]float64, names ...string) {
	t.Helper()
	for _, name := range names {
		if v, ok := rec[name]; !ok || v != 0 {
			t.Errorf("%s = %v (present %v), want 0", name, v, ok)
		}
	}
}

// stageFloors are the stage-breakdown and latency fields every throughput
// record must carry.
var stageFloors = map[string]float64{
	"append_p50_ms":          1e-9,
	"append_p99_ms":          1e-9,
	"appends_per_sec":        1e-9,
	"slots":                  1,
	"live_regions":           1,
	"stage_e2e_p50_ms":       1e-9,
	"stage_agreement_p50_ms": 1e-9,
	"stage_apply_p50_ms":     1e-9,
	"queue_depth_peak":       1,
	"inflight_slots_peak":    1,
	"allocs_per_op":          1e-9,
	"batch_size_mean":        1,
}

// TestRebalanceOnBothTargets runs the driver with -rebalance in process and
// served: both records carry the stage breakdown and a clean handoff audit.
func TestRebalanceOnBothTargets(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"in-process", nil},
		{"served", []string{"-net", "-lease", "100ms"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-shards", "2", "-ops", "120", "-clients", "8", "-batch", "4", "-latency", "200us", "-rebalance"}, tc.args...)
			rec := runRecord(t, args...)
			require(t, rec, stageFloors)
			require(t, rec, map[string]float64{"rebalance_moved_keys": 1, "rebalance_handoff_ms": 1e-9})
			requireZero(t, rec, "rebalance_lost_keys", "rebalance_forked_keys", "lost_responses")
			if tc.name == "served" {
				require(t, rec, map[string]float64{"served_ops": 120})
			}
		})
	}
}

// TestReadsLeaseFailover runs the read and failover phases in process: the
// record has a read rate to compare and a measured takeover.
func TestReadsLeaseFailover(t *testing.T) {
	rec := runRecord(t, "-shards", "1", "-ops", "40", "-clients", "8", "-batch", "4", "-latency", "200us",
		"-reads", "50", "-lease", "100ms", "-failover")
	require(t, rec, stageFloors)
	require(t, rec, map[string]float64{
		"reads_per_sec":      1e-9,
		"lease_reads":        1,
		"lease_takeovers":    1,
		"failover_epoch_ms":  1e-9,
		"failover_commit_ms": 1e-9,
	})
	requireZero(t, rec, "lost_responses")
}

// TestUsage pins the exit code of flag combinations the driver refuses.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "1", "-failover"},
		{"-rebalance"},
		{"-net"},
		{"-compare", "only-one.json"},
		{"-no-such-flag"},
	} {
		if code := run(args); code != exitUsage {
			t.Errorf("agreementbench %v exited %d, want %d", args, code, exitUsage)
		}
	}
}
