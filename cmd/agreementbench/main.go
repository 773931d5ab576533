// Command agreementbench regenerates the experiment tables recorded in
// EXPERIMENTS.md: the delay, resilience and signature-cost measurements that
// reproduce the quantitative claims of "The Impact of RDMA on Agreement".
//
// It also benchmarks the replicated-log subsystem built on top of the paper's
// protocols: -shards switches to throughput mode, which drives a sharded
// key-value store over long-lived consensus groups and reports aggregate
// appends/sec plus append latency percentiles; -net puts the same store
// behind an in-process kvserver on loopback TCP and drives it through one
// client connection per worker; -pipeline sets the per-group slot pipeline
// depth, -lease enables leader leases (linearizable reads then serve locally
// while the lease is healthy, counted as lease vs barrier reads), -failover
// stalls a lease holder after the workload and reports the measured failover
// time, -rebalance adds a shard mid-workload and reports the live handoff
// (moved keys, forwarded ops, throughput dip, lost/forked-key audit), and
// -json writes the run's results as a machine-readable record for CI.
// -compare gates two such records against each other on appends/sec or, with
// -metric reads, on linearizable reads/sec (the bench-smoke CI job uses both
// to fail on regressions, and additionally floors the current run against
// the committed BENCH_baseline.json).
//
// Every throughput run also reports the slot-lifecycle stage decomposition
// from the store's built-in metrics registry (batch wait → agreement →
// commit wait → apply, plus queue-depth high-water marks and allocations per
// committed op), both on stdout and in the -json record. Profiling hooks:
// -cpuprofile/-memprofile/-trace-out write pprof/runtime-trace artifacts for
// the run, and -metrics-addr serves a live debug HTTP endpoint (/metrics
// Prometheus-style text, /debug/vars expvar, /debug/pprof/ profiles) while
// the benchmark runs.
//
// Usage:
//
//	agreementbench                   # run every experiment table
//	agreementbench -table e1         # run a single experiment (e1..e6, e8, e9)
//	agreementbench -shards 4         # sharded-log throughput, 4 groups
//	agreementbench -shards 4 -batch 8 -ops 2000 -clients 64 -latency 1ms
//	agreementbench -shards 2 -snap-interval 64   # snapshot-driven slot GC: report live regions
//	agreementbench -shards 2 -reads 200          # read-index (linearizable) read latency
//	agreementbench -shards 2 -reads 200 -lease 250ms   # lease-served linearizable reads
//	agreementbench -shards 1 -lease 250ms -failover    # measured lease failover time
//	agreementbench -shards 1 -pipeline 4 -json out.json   # pipelined commit, JSON record
//	agreementbench -shards 2 -rebalance -json out.json    # live shard add: handoff + audit
//	agreementbench -shards 2 -net -rebalance     # the same, served over loopback TCP
//	agreementbench -shards 1 -cpuprofile cpu.prof -memprofile mem.prof   # pprof artifacts
//	agreementbench -shards 4 -metrics-addr localhost:6060   # live /metrics + /debug/pprof/
//	agreementbench -compare base.json new.json   # exit 3 unless new appends faster than base
//	agreementbench -compare -metric reads barrier.json lease.json   # gate on reads/sec
//
// Diagnostics and usage go to stderr; only results go to stdout. Exit codes
// are distinct so CI can tell failure modes apart:
//
//	0  success
//	1  the benchmark failed to run (cluster error, commit failure, lost
//	   response, lost or forked key, bad file)
//	2  usage error (unknown flag, malformed invocation)
//	3  -compare found a regression (the benchmarks ran fine; the numbers did not)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"sync"
	"sync/atomic"
	"time"

	"rdmaagreement"
)

// Exit codes. A flag parse error also exits 2, matching exitUsage.
const (
	exitOK         = 0
	exitRuntime    = 1
	exitUsage      = 2
	exitRegression = 3
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("agreementbench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	table := fs.String("table", "all", "experiment to run (e1..e9, or 'all')")
	shards := fs.Int("shards", 0, "run sharded-log throughput mode with this many groups (0 = experiment tables)")
	batch := fs.Int("batch", 8, "throughput mode: max commands agreed as one slot value")
	batchBytes := fs.Int("batch-bytes", 0, "throughput mode: byte budget per slot value for adaptive group commit (0 = smr default, negative disables)")
	batchWait := fs.Duration("batch-wait", 0, "throughput mode: adaptive group-commit coalescing horizon — how long a non-full batch may wait for company (0 = cut immediately)")
	warmup := fs.Float64("warmup", 0.1, "throughput mode: warmup puts as a fraction of -ops, committed before the measurement window opens so the allocator, pools and key maps settle")
	ops := fs.Int("ops", 1000, "throughput mode: total puts to commit")
	clients := fs.Int("clients", 32, "throughput mode: concurrent client goroutines")
	latency := fs.Duration("latency", time.Millisecond, "throughput mode: simulated per-operation memory latency")
	reads := fs.Int("reads", 0, "throughput mode: linearizable (read-index) reads to issue after the puts, reporting their latency")
	snapInterval := fs.Int("snap-interval", 0, "throughput mode: per-group snapshot interval driving slot GC (0 = smr default, <0 disables)")
	pipeline := fs.Int("pipeline", 0, "throughput mode: slots in flight per group (0 = smr default, 1 = serial commit)")
	lease := fs.Duration("lease", 0, "throughput mode: leader lease duration per group (0 = leases disabled; linearizable reads then pay the read-index barrier)")
	failover := fs.Bool("failover", false, "throughput mode: after the workload, stall one group's lease holder and report the measured failover time (requires -lease)")
	rebalance := fs.Bool("rebalance", false, "throughput mode: mid-workload, add one shard under live traffic and report the handoff (moved keys, forwarded ops, throughput dip) plus a lost/forked-key audit")
	netMode := fs.Bool("net", false, "throughput mode: serve the store through an in-process kvserver on loopback TCP and drive it with the ring-aware client (-clients concurrent connections); with -rebalance the shard add goes through the admin endpoint")
	jsonPath := fs.String("json", "", "throughput mode: also write the results as JSON to this file")
	metricsAddr := fs.String("metrics-addr", "", "serve a debug HTTP endpoint on this address while the benchmark runs: /metrics (Prometheus-style text), /debug/vars (expvar), /debug/pprof/ (profiles)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the run to this file (go tool pprof)")
	traceOut := fs.String("trace-out", "", "write a runtime execution trace of the run to this file (go tool trace)")
	compare := fs.Bool("compare", false, "compare two -json records (base, new): exit 3 unless new beats base on -metric by -min-speedup")
	metric := fs.String("metric", "appends", "compare mode: which rate to gate on, 'appends' (appends/sec) or 'reads' (linearizable reads/sec)")
	minSpeedup := fs.Float64("min-speedup", 1.0, "compare mode: required rate ratio new/base (1.0 = strictly faster)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "agreementbench: -compare needs exactly two arguments: base.json new.json")
			fs.Usage()
			return exitUsage
		}
		if *metric != "appends" && *metric != "reads" {
			fmt.Fprintf(os.Stderr, "agreementbench: unknown -metric %q (want 'appends' or 'reads')\n", *metric)
			fs.Usage()
			return exitUsage
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *metric, *minSpeedup)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "agreementbench: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return exitUsage
	}
	if *failover && *lease <= 0 {
		fmt.Fprintln(os.Stderr, "agreementbench: -failover requires -lease (there is no lease to expire without one)")
		fs.Usage()
		return exitUsage
	}
	if *rebalance && *shards <= 0 {
		fmt.Fprintln(os.Stderr, "agreementbench: -rebalance requires -shards (it adds one to a running sharded store)")
		fs.Usage()
		return exitUsage
	}
	if *netMode && *shards <= 0 {
		fmt.Fprintln(os.Stderr, "agreementbench: -net requires -shards (it serves a sharded store over TCP)")
		fs.Usage()
		return exitUsage
	}

	if *metricsAddr != "" {
		stopMetrics, merr := serveMetrics(*metricsAddr)
		if merr != nil {
			fmt.Fprintf(os.Stderr, "agreementbench: %v\n", merr)
			return exitRuntime
		}
		defer stopMetrics()
	}
	stopProfiles, err := startProfiles(*cpuprofile, *traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "agreementbench: %v\n", err)
		return exitRuntime
	}

	if *shards > 0 {
		err = runThroughput(throughputConfig{
			Shards:       *shards,
			Batch:        *batch,
			BatchBytes:   *batchBytes,
			BatchWait:    *batchWait,
			Warmup:       *warmup,
			Ops:          *ops,
			Clients:      *clients,
			Latency:      *latency,
			Reads:        *reads,
			SnapInterval: *snapInterval,
			Pipeline:     *pipeline,
			Lease:        *lease,
			Failover:     *failover,
			Rebalance:    *rebalance,
			Net:          *netMode,
		}, *jsonPath)
	} else {
		err = runTables(*table)
	}
	stopProfiles()
	if *memprofile != "" {
		if werr := writeHeapProfile(*memprofile); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "agreementbench: %v\n", err)
		return exitRuntime
	}
	return exitOK
}

// liveRegistry is the metrics registry of the benchmark currently running, if
// any, published to the -metrics-addr endpoint. The benchmark stores it once
// its store is built; the HTTP handlers load it on every request so a scrape
// before the store exists degrades gracefully instead of crashing.
var liveRegistry atomic.Pointer[rdmaagreement.MetricsRegistry]

// publishSMROnce guards the process-global expvar key: expvar.Publish panics
// on duplicates, so repeated serveMetrics calls (tests, embedding) register
// it exactly once. The mux and listener below are per-call and private.
var publishSMROnce sync.Once

// serveMetrics starts the debug HTTP endpoint: /metrics serves the live
// registry as Prometheus-style text, /debug/vars is expvar (the registry is
// published under the "smr" key), /debug/pprof/ the usual runtime profiles.
// Everything is registered on a DEDICATED mux behind a private http.Server —
// never http.DefaultServeMux, whose process-global registrations collided
// with any other server in the process (the in-process kvserver of -net runs
// next to this endpoint) and panicked on re-registration. The returned
// shutdown function stops the listener gracefully.
func serveMetrics(addr string) (shutdown func(), err error) {
	publishSMROnce.Do(func() {
		expvar.Publish("smr", expvar.Func(func() any {
			reg := liveRegistry.Load()
			if reg == nil {
				return nil
			}
			return reg.Snapshot()
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		reg := liveRegistry.Load()
		if reg == nil {
			http.Error(w, "no benchmark running yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := reg.WriteText(w); err != nil {
			fmt.Fprintf(os.Stderr, "agreementbench: /metrics write: %v\n", err)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics endpoint: %w", err)
	}
	srv := &http.Server{Handler: mux}
	fmt.Fprintf(os.Stderr, "agreementbench: debug endpoint on http://%s/ (/metrics, /debug/vars, /debug/pprof/)\n", ln.Addr())
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "agreementbench: metrics endpoint: %v\n", err)
		}
	}()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}, nil
}

// startProfiles begins CPU profiling and runtime tracing as requested and
// returns the function that stops both (safe to call once, always non-nil).
func startProfiles(cpuprofile, traceOut string) (stop func(), err error) {
	var stops []func()
	stop = func() {
		for _, f := range stops {
			f()
		}
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return stop, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, fmt.Errorf("cpuprofile: %w", err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			stop()
			return func() {}, fmt.Errorf("trace-out: %w", err)
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			stop()
			return func() {}, fmt.Errorf("trace-out: %w", err)
		}
		stops = append(stops, func() {
			rtrace.Stop()
			f.Close()
		})
	}
	return stop, nil
}

// writeHeapProfile snapshots the heap after a GC so the profile reflects live
// objects, not garbage the run already dropped.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

func runTables(which string) error {
	experiments := rdmaagreement.Experiments()
	ids := rdmaagreement.ExperimentIDs()
	if which != "all" {
		runner, ok := experiments[which]
		if !ok {
			return fmt.Errorf("unknown experiment %q (available: %v)", which, ids)
		}
		return runOne(which, runner)
	}
	for _, id := range ids {
		if err := runOne(id, experiments[id]); err != nil {
			return err
		}
	}
	return nil
}

func runOne(id string, runner func() (rdmaagreement.Table, error)) error {
	table, err := runner()
	if err != nil {
		return fmt.Errorf("experiment %s: %w", id, err)
	}
	fmt.Println(table.String())
	return nil
}

// runCompare gates one throughput record against another on the chosen
// metric — appends/sec, or linearizable reads/sec with -metric reads (how CI
// asserts lease reads beat the read-index path). It exits with
// exitRegression when the new record does not beat the base by minSpeedup.
// Runtime problems (unreadable files, zero rates, records without the
// metric) are exitRuntime — a bench that failed to run is a different signal
// than a bench that ran slower.
func runCompare(basePath, newPath, metric string, minSpeedup float64) int {
	base, err := readResult(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "agreementbench: %v\n", err)
		return exitRuntime
	}
	new_, err := readResult(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "agreementbench: %v\n", err)
		return exitRuntime
	}
	baseRate, basePct := base.AppendsPerSec, base.AppendP99MS
	newRate, newPct := new_.AppendsPerSec, new_.AppendP99MS
	unit := "appends/sec"
	if metric == "reads" {
		baseRate, basePct = base.ReadsPerSec, base.ReadP99MS
		newRate, newPct = new_.ReadsPerSec, new_.ReadP99MS
		unit = "reads/sec"
	}
	if baseRate <= 0 || newRate <= 0 {
		fmt.Fprintf(os.Stderr, "agreementbench: compare: non-positive %s (base %.2f, new %.2f) — was the metric recorded?\n",
			unit, baseRate, newRate)
		return exitRuntime
	}
	ratio := newRate / baseRate
	fmt.Printf("compare: base %.0f %s (p99 %.2fms) vs new %.0f %s (p99 %.2fms): %.2fx (need > %.2fx)\n",
		baseRate, unit, basePct, newRate, unit, newPct, ratio, minSpeedup)
	if ratio <= minSpeedup {
		fmt.Fprintf(os.Stderr, "agreementbench: regression: %s is not faster than %s on %s (%.2fx <= %.2fx)\n",
			newPath, basePath, unit, ratio, minSpeedup)
		return exitRegression
	}
	return exitOK
}

func readResult(path string) (throughputResult, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return throughputResult{}, fmt.Errorf("compare: %w", err)
	}
	var res throughputResult
	if err := json.Unmarshal(blob, &res); err != nil {
		return throughputResult{}, fmt.Errorf("compare %s: %w", path, err)
	}
	return res, nil
}
