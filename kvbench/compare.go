package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json a comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compare reads the untraced records of two --out files (base, then
// change) and reports, per workload and end-to-end metric, each side's
// median and quartiles and by how much the change is worse, against the
// bound BENCHMARK.json fixes. It refuses records whose environments differ.
// Exit code 1 means a refusal or a metric worse than its bound.
func compare(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "kvbench: usage: compare BASE.jsonl CHANGE.jsonl")
		return 2
	}
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: compare must run from the repository root: %v\n", err)
		return 1
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: BENCHMARK.json: %v\n", err)
		return 1
	}
	sides, err := groupRecords(args[0], args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: %v\n", err)
		return 1
	}

	var names []string
	for w := range sides[0] {
		if len(sides[1][w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	regressed := false
	fmt.Fprintf(stdout, "%-15s %-14s %26s %26s %9s %6s  %s\n", "workload", "metric", "base median [q1,q3]", "change median [q1,q3]", "worse_by", "bound", "verdict")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			base, change := values(sides[0][w], m.Name), values(sides[1][w], m.Name)
			if len(base) == 0 || len(change) == 0 {
				continue
			}
			b1, b2, b3 := quartiles(base)
			c1, c2, c3 := quartiles(change)
			worse := (c2 - b2) / b2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound && (b3-b1)/b2 > m.Bound:
				verdict = "unresolved: base spread exceeds bound"
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(stdout, "%-15s %-14s %10.4g [%6.4g,%6.4g] %10.4g [%6.4g,%6.4g] %+8.1f%% %5.0f%%  %s\n",
				w, m.Name, b2, b1, b3, c2, c1, c3, 100*worse, 100*m.Bound, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// groupRecords reads the base and change record files and groups their
// untraced records by workload. It refuses records whose environments
// differ.
func groupRecords(base, change string) ([2]map[string][]record, error) {
	var sides [2]map[string][]record
	envs := map[string]bool{}
	for i, path := range []string{base, change} {
		recs, err := readRecords(path)
		if err != nil {
			return sides, err
		}
		sides[i] = map[string][]record{}
		for _, r := range recs {
			envs[r.Env.comparable()] = true
			if !r.Trace {
				sides[i][r.Workload] = append(sides[i][r.Workload], r)
			}
		}
	}
	if len(envs) > 1 {
		list := make([]string, 0, len(envs))
		for e := range envs {
			list = append(list, e)
		}
		sort.Strings(list)
		return sides, fmt.Errorf("refusing to compare records from different environments: %s", strings.Join(list, "; "))
	}
	return sides, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles are the first quartile, median and third quartile of xs, by
// the same exclusive method as Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), median(s), at(0.75)
}
