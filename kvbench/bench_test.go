package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spec is BENCHMARK.json, which names every metric the driver must emit.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics fails unless got holds exactly the wanted names, each with
// its unit and a finite value.
func checkMetrics(t *testing.T, got *metricSet, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got.values) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got.values), len(want))
	}
	for _, w := range want {
		m, ok := got.values[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s has unit %q, want %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v, not finite", w.Name, m.Value)
		}
	}
}

// TestShortRunsEmitEveryMetric runs each workload briefly, untraced and
// traced, and checks that every metric BENCHMARK.json names comes out with
// its unit as a finite value, and that every read checked out.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the driver has %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		t.Run(sw.Name, func(t *testing.T) {
			w, ok := lookupWorkload(sw.Name)
			if !ok {
				t.Fatalf("workload %s is not defined", sw.Name)
			}
			o, err := runMeasured(w, 7, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("untraced run: %d of %d ops failed: %v", o.failed, o.attempted, o.firstErr)
			}
			checkMetrics(t, o.metrics, s.EndToEnd)

			o, err = runTraced(w, 7, 1, filepath.Join(t.TempDir(), "spans.csv"))
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 {
				t.Fatalf("traced run: %d of %d ops failed: %v", o.failed, o.attempted, o.firstErr)
			}
			checkMetrics(t, o.metrics, s.PerLayer)
		})
	}
}

// TestCorruptedReadBackFails shows the correctness check is not vacuous: a
// read-back value altered after it is read fails the run.
func TestCorruptedReadBackFails(t *testing.T) {
	w, _ := lookupWorkload("served-mixed")
	o, err := runMeasured(w, 7, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if o.mismatched != 1 || o.failed != 1 {
		t.Fatalf("corrupted read-back: %d mismatched, %d failed; want 1 and 1", o.mismatched, o.failed)
	}
	if !strings.Contains(o.firstErr.Error(), "read-back") {
		t.Fatalf("first failure %v, want the read-back's", o.firstErr)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestCompareRefusesOtherEnvironments checks that records stamped with
// different environments are not compared.
func TestCompareRefusesOtherEnvironments(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, e env) string {
		path := filepath.Join(dir, name)
		r := record{Workload: "paper-2ms", Env: e, result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"ops_per_s": {Value: 1, Unit: "1/s"}}}}
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	e := env{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "a", Seed: 1, Seconds: 10}
	base := write("base.jsonl", e)
	e.Commit, e.Seed = "b", 2
	same := write("same.jsonl", e)
	if _, err := groupRecords(base, same); err != nil {
		t.Fatalf("records differing only in commit and seed refused: %v", err)
	}
	e.NProc = 4
	other := write("other.jsonl", e)
	if _, err := groupRecords(base, other); err == nil {
		t.Fatal("records from different environments were compared")
	}
}

// TestAtZeroStealRecoversTheUnstolenValue fits values that fall with steal
// and drift along the run, and checks the fit returns the value at zero
// steal in the middle of the run.
func TestAtZeroStealRecoversTheUnstolenValue(t *testing.T) {
	var ps []point
	for i := range 40 {
		steal := 0.1 + 0.2*float64(i%5)/4 // uncorrelated with the drift
		v := 1000 * math.Exp(-2*steal+0.01*(float64(i)-19.5))
		ps = append(ps, point{value: v, steal: steal, t: float64(i)})
	}
	ps = append(ps, point{value: 0, steal: 0.5, t: 40}, point{value: math.NaN(), t: 41})
	if got := atZeroSteal(ps[:40]); math.Abs(got-1000) > 1e-6 {
		t.Fatalf("atZeroSteal = %v, want 1000", got)
	}
	// An empty slice is left out, and so is one that could not be timed.
	if got := atZeroSteal(ps); math.Abs(got-1000) > 1e-6 {
		t.Fatalf("atZeroSteal with unusable points = %v, want 1000", got)
	}
	// Steal that never varies cannot be fitted: the geometric mean.
	flat := []point{{value: 2, steal: 0.3, t: 0}, {value: 8, steal: 0.3, t: 0}}
	if got := atZeroSteal(flat); math.Abs(got-4) > 1e-9 {
		t.Fatalf("atZeroSteal with constant steal = %v, want 4", got)
	}
}

// TestHostTraceInterpolates checks steal and CPU between readings.
func TestHostTraceInterpolates(t *testing.T) {
	t0 := time.Now()
	h := hostTrace{
		{at: t0, steal: 0, total: 0, cpu: 0},
		{at: t0.Add(100 * time.Millisecond), steal: 10, total: 40, cpu: 100 * time.Millisecond},
		{at: t0.Add(200 * time.Millisecond), steal: 10, total: 80, cpu: 300 * time.Millisecond},
	}
	if got := h.steal(t0, t0.Add(100*time.Millisecond)); got != 0.25 {
		t.Errorf("steal over the first reading = %v, want 0.25", got)
	}
	if got := h.steal(t0.Add(50*time.Millisecond), t0.Add(150*time.Millisecond)); got != 0.125 {
		t.Errorf("steal across readings = %v, want 0.125", got)
	}
	if got := h.cpu(t0.Add(150*time.Millisecond), t0.Add(time.Second)); got != 100*time.Millisecond {
		t.Errorf("cpu past the last reading = %v, want 100ms", got)
	}
}
