// Command agreementchaos runs seed-reproducible chaos campaigns against the
// replicated KV stack: each schedule composes random faults the simulators
// already model — memory crashes, lease-holder stalls, message jitter, forced
// lease transfers, interrupted mid-handoff rebalances — while concurrent
// clients (in-process and, with -net, through the kvserver/client served
// path) record a full operation history that internal/linearize then checks.
//
// The schedule is a pure function of the flags: the same invocation replays
// the identical fault plan byte for byte, so a failing run's repro is the
// one-line command it prints. Commit failing seeds to
// internal/chaos/regression_test.go so they replay on every PR.
//
//	agreementchaos                      # one schedule, random seed (printed)
//	agreementchaos -seed 7              # replay seed 7 exactly
//	agreementchaos -seed 7 -net         # half the clients via kvserver/client
//	agreementchaos -seed 1 -schedules 8 # seeds 1..8, one schedule each
//	agreementchaos -duration 10m        # seeded campaign until the budget ends
//	agreementchaos -seed 7 -dry-run     # print the schedule, run nothing
//	agreementchaos -faults stall,jitter # restrict the fault mix
//	agreementchaos -snap-interval 8     # snapshot (and restore lagging views) every 8 entries
//	agreementchaos -history-out h.txt   # on violation, dump the refuted ops
//
// Diagnostics and schedules go to stderr; the verdict goes to stdout. Exit
// codes are distinct so CI can tell failure modes apart:
//
//	0  every schedule linearizable
//	1  a run itself broke (cluster error, audit read failed)
//	2  usage error (unknown flag, malformed invocation)
//	3  linearizability violation (the history refutes the store's contract)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rdmaagreement/internal/chaos"
)

// Exit codes. flag.ExitOnError also exits 2 on parse errors, matching
// exitUsage.
const (
	exitOK        = 0
	exitRuntime   = 1
	exitUsage     = 2
	exitViolation = 3
)

func main() {
	os.Exit(run())
}

func run() int {
	flag.CommandLine.SetOutput(os.Stderr)
	seed := flag.Int64("seed", -1, "schedule seed; -1 picks one at random and prints it")
	schedules := flag.Int("schedules", 1, "schedules to run, seeds seed, seed+1, ...")
	duration := flag.Duration("duration", 0, "instead of -schedules, keep running consecutive seeds until this wall-clock budget is spent")
	shards := flag.Int("shards", 0, "initial shard groups (0 = chaos default)")
	clients := flag.Int("clients", 0, "concurrent workload clients (0 = chaos default)")
	keys := flag.Int("keys", 0, "keyspace size; smaller means more contention (0 = chaos default)")
	events := flag.Int("events", 0, "faults per schedule (0 = chaos default)")
	window := flag.Duration("window", 0, "workload-and-fault window per schedule (0 = chaos default)")
	latency := flag.Duration("latency", 0, "simulated one-way memory/network latency (0 = chaos default)")
	lease := flag.Duration("lease", 0, "leader lease duration; negative disables leases and the stall fault (0 = chaos default)")
	putPercent := flag.Int("put-percent", 0, "write share of the workload in percent (0 = chaos default)")
	batch := flag.Int("batch", 0, "max commands agreed as one slot value (0 = smr default)")
	batchWait := flag.Duration("batch-wait", 0, "adaptive group-commit coalescing horizon (0 = cut immediately)")
	snapInterval := flag.Int("snap-interval", 0, "per-group snapshot interval in entries (0 = smr default, <0 disables)")
	faults := flag.String("faults", "", "comma-separated fault kinds to enable (empty = all: "+strings.Join(chaos.AllFaults, ",")+")")
	netMode := flag.Bool("net", false, "route half the clients through an in-process kvserver on loopback TCP and the ring-aware client package")
	dryRun := flag.Bool("dry-run", false, "print each schedule and exit without running it")
	historyOut := flag.String("history-out", "", "on violation, write the refuted operation windows to this file (default: stdout)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "agreementchaos: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		return exitUsage
	}
	if *schedules < 1 {
		fmt.Fprintln(os.Stderr, "agreementchaos: -schedules must be at least 1")
		flag.Usage()
		return exitUsage
	}

	baseSeed := *seed
	if baseSeed < 0 {
		baseSeed = time.Now().UnixNano() & 0x7fffffff
		fmt.Fprintf(os.Stderr, "agreementchaos: picked seed %d\n", baseSeed)
	}

	var kinds []string
	if *faults != "" {
		for _, k := range strings.Split(*faults, ",") {
			if k = strings.TrimSpace(k); k != "" {
				kinds = append(kinds, k)
			}
		}
	}

	cfg := chaos.Config{
		Shards:           *shards,
		Clients:          *clients,
		Keys:             *keys,
		Window:           *window,
		Events:           *events,
		Latency:          *latency,
		Lease:            *lease,
		Batch:            *batch,
		BatchWait:        *batchWait,
		SnapshotInterval: *snapInterval,
		PutPercent:       *putPercent,
		Faults:           kinds,
		Served:           *netMode,
		Out:              os.Stderr,
	}

	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}

	totals := struct {
		schedules, ops, unknown int
		faults                  map[string]int
		check                   time.Duration
	}{faults: make(map[string]int)}

	for i := 0; ; i++ {
		if deadline.IsZero() {
			if i >= *schedules {
				break
			}
		} else if i > 0 && time.Now().After(deadline) {
			break
		}
		cfg.Seed = baseSeed + int64(i)

		if *dryRun {
			fmt.Fprint(os.Stderr, chaos.Build(cfg).String())
			continue
		}

		res, err := chaos.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "agreementchaos: seed %d: %v\n", cfg.Seed, err)
			fmt.Fprintf(os.Stderr, "repro: %s\n", cfg.ReproLine())
			return exitRuntime
		}
		if !res.Linearizable {
			return reportViolation(cfg, res, *historyOut)
		}
		totals.schedules++
		totals.ops += res.Ops
		totals.unknown += res.Unknown
		totals.check += res.CheckDuration
		for k, n := range res.Faults {
			totals.faults[k] += n
		}
	}

	if *dryRun {
		return exitOK
	}
	parts := make([]string, 0, len(totals.faults))
	for _, k := range chaos.AllFaults {
		if n := totals.faults[k]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, n))
		}
	}
	fmt.Printf("PASS schedules=%d ops=%d unknown=%d faults[%s] check=%s\n",
		totals.schedules, totals.ops, totals.unknown, strings.Join(parts, " "), totals.check.Round(time.Millisecond))
	return exitOK
}

// reportViolation prints the repro line and writes the refuted operation
// windows where the user asked for them.
func reportViolation(cfg chaos.Config, res chaos.Result, historyOut string) int {
	fmt.Printf("FAIL seed=%d: history not linearizable (%d violating keys)\n", cfg.Seed, len(res.Violations))
	fmt.Printf("repro: %s\n", cfg.ReproLine())
	var sink *os.File
	if historyOut != "" {
		f, err := os.Create(historyOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "agreementchaos: -history-out: %v\n", err)
			return exitRuntime
		}
		defer f.Close()
		fmt.Fprint(f, res.Schedule.String())
		sink = f
		fmt.Printf("refuted histories written to %s\n", historyOut)
	} else {
		sink = os.Stdout
	}
	for _, v := range res.Violations {
		fmt.Fprintln(sink, v.Report())
	}
	return exitViolation
}
