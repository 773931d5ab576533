// Command kvbench is the repository's benchmark. One driver process runs a
// named workload against the library-default sharded KV deployment, checks
// that every read returns the last acknowledged write, and prints every
// metric by name with its unit. The last line of standard output is the
// result as one JSON object. See README.md for the workloads, the metrics
// and how to read the traced run.
//
// Usage, from the repository root:
//
//	bash kvbench/run.sh --workload paper-2ms --seed 1 --seconds 20 --trace 0
//	bash kvbench/run.sh --workload served-mixed --seed 1 --seconds 20 --trace 1 --out base.jsonl
//	bash kvbench/run.sh compare base.jsonl change.jsonl
//
// Exit codes: 0 measured and correct, 1 a correctness failure or a failed
// run, 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as appended to an --out file: the result plus what it
// ran and where, so comparisons can refuse records from different
// environments.
type record struct {
	Workload string         `json:"workload"`
	Trace    bool           `json:"trace"`
	Env      env            `json:"env"`
	Samples  map[string]int `json:"samples"`
	result
}

func run(args []string, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout)
	}
	fs := flag.NewFlagSet("kvbench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	name := fs.String("workload", "", "workload to run: paper-2ms, floor-bigstate or served-mixed")
	seed := fs.Int64("seed", 1, "seed the keys, values and op mix are generated from")
	seconds := fs.Int("seconds", 20, "length of the measured window (floor-bigstate: 5000 puts per second)")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	out := fs.String("out", "", "append the run's record to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || fs.NArg() != 0 || *seconds < 1 || *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "kvbench: need --workload (one of paper-2ms, floor-bigstate, served-mixed), --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}

	e := stamp(*seed, *seconds)
	fmt.Fprintf(stdout, "kvbench %s trace=%d %s\n", w.name, *trace, e)
	var o *outcome
	var err error
	if *trace == 1 {
		o, err = runTraced(w, *seed, *seconds, filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.csv", w.name, *seed)))
	} else {
		o, err = runMeasured(w, *seed, *seconds, false)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, n := range o.metrics.names {
		m := o.metrics.values[n]
		line := fmt.Sprintf("%-30s %14.6g %s", n, m.Value, m.Unit)
		if s, ok := o.metrics.samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", s)
		}
		fmt.Fprintln(stdout, line)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "kvbench: %s: metric %s is not finite\n", w.name, n)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%-30s %14.6g frac  (%d of %d ops)\n", "failed_frac", float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	fmt.Fprintf(stdout, "%-30s %14.6g frac  (ops_per_s as measured, before the zero-steal fit: %.6g)\n", "host_steal_frac", o.steal, o.seenRate)
	if o.firstErr != nil {
		fmt.Fprintf(os.Stderr, "kvbench: %s: first failure: %v\n", w.name, o.firstErr)
	}

	res := result{Correct: o.mismatched == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics.values}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: w.name, Trace: *trace == 1, Env: e, Samples: o.metrics.samples, result: res}); err != nil {
			fmt.Fprintf(os.Stderr, "kvbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "kvbench: %s: %d reads did not return the last acknowledged write\n", w.name, o.mismatched)
		return 1
	}
	return 0
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open record file: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write record: %w", err)
	}
	return f.Close()
}
