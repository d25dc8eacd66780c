// Command bench is the repository's benchmark: one command that runs one
// workload end to end, prints every metric by name with its unit, checks
// the outputs and exits non-zero when a check fails.
//
//	go run ./cmd/bench -workload fused_ingest -seed 1
//	go run ./cmd/bench -workload daemon_live_query -seed 1 -trace spans.json
//	go run ./cmd/bench -all -seed 1
//	go run ./cmd/bench -selfcheck
//
// The last line of standard output is one JSON object with the run's
// verdict and metrics (BENCHMARK.json describes them); everything above
// it is for people. See internal/bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"

	"repro/internal/bench"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: fused_ingest, daemon_ingest, daemon_live_query or sim_profile")
		all       = flag.Bool("all", false, "run every workload in turn")
		seed      = flag.Int64("seed", 1, "input seed: the same seed generates the same packs")
		seconds   = flag.Float64("seconds", bench.DefaultSeconds, "length of the measured phase in seconds")
		trace     = flag.String("trace", "0", "traced run: 0 = off, 1 = on (spans go to "+defaultTraceDir+"), or the span file to write")
		selfcheck = flag.Bool("selfcheck", false, "run every workload as two interleaved sets of the same binary and compare them with the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}

	// The numbers are defined for two Ps: one for the generator, one for
	// the engine. More would let Go spread the work differently from run
	// to run.
	runtime.GOMAXPROCS(bench.Procs)

	if *selfcheck {
		exe, err := os.Executable()
		if err != nil {
			fatalf("%v", err)
		}
		so := bench.SelfCheckOptions{Exe: exe, Seed: *seed, Seconds: *seconds}
		if *workload != "" {
			so.Workloads = []string{*workload}
		}
		ok, err := bench.SelfCheck(os.Stdout, so)
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	names := []string{*workload}
	if *all {
		names = names[:0]
		for _, w := range bench.Workloads {
			names = append(names, w.Name)
		}
	} else if *workload == "" {
		fatalf("no -workload given (one of %s, or -all)", bench.WorkloadNames())
	}
	printHost()
	failed := false
	for _, name := range names {
		o := bench.Options{Workload: name, Seed: *seed, Seconds: *seconds}
		var res *bench.Result
		var err error
		switch *trace {
		case "0", "":
			res, err = bench.Run(o)
		case "1":
			res, err = bench.RunTraced(o, filepath.Join(defaultTraceDir, "spans_"+name+".json"), os.Stdout)
		default:
			res, err = bench.RunTraced(o, *trace, os.Stdout)
		}
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		printResult(res)
		if !res.Correct {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// defaultTraceDir receives span files when -trace is 1; .gitignore
// names it.
const defaultTraceDir = ".bench_out"

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// printHost records what the numbers were measured on.
func printHost() {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# host num_cpu=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
	if runtime.NumCPU() < bench.Procs {
		fmt.Printf("# WARNING: %d CPU(s) < %d: generator and engine share a core; this run is NOT COMPARABLE with recorded numbers\n",
			runtime.NumCPU(), bench.Procs)
	}
}

// printResult prints the metrics for people, then the contract line.
func printResult(res *bench.Result) {
	fmt.Printf("# workload=%s seed=%d units=%d latency_samples=%d attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Units, res.Samples, res.Attempted, res.Failed)
	if res.FingerprintKey != "" {
		fmt.Printf("# fingerprint %s %s\n", res.FingerprintKey, res.Fingerprint)
	}
	for _, e := range res.Errors {
		fmt.Printf("# FAILED: %s\n", e)
	}
	printValues(res.Metrics)
	printValues(res.Harness)
	line, err := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n", line)
}

func printValues(vs map[string]bench.Value) {
	names := make([]string, 0, len(vs))
	for n := range vs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %16.6g %s\n", n, vs[n].Value, vs[n].Unit)
	}
}
