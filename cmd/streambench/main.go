// Command streambench runs the simulated sweeps of the engine's extensions
// beyond the paper; the paper's Figure 14 stream sweep is the figure
// table's entry 14 (profiler -fig 14).
//
// With -tree, the command measures the multi-level reduction tree: the
// named applications are profiled through the flat pipeline and through
// each requested tree topology, and the table compares every topology's
// root-blackboard ingest volume against the flat baseline:
//
//	streambench -tree LU.C@64,CG.C@64 -tree-levels 2,3 -tree-fanin 8
//
// With -overload, the command runs the adaptive-engine overload
// experiment: the named applications are profiled unloaded, then with the
// analyzer partition throttled to -overload-rate bytes/second — once with
// the static engine (back-pressure only) and once with the closed-loop
// controller shedding load under a quantified completeness bound:
//
//	streambench -overload LU.A@16 -overload-rate 200k
//
// Host-speed engine measurements (decode, fold, lanes, windows, the daemon)
// are cmd/bench's; this command runs the simulated experiments.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/cliutil"
	"repro/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("streambench: ")
	var (
		platformFlag = flag.String("platform", "tera100", "platform model (tera100 or curie)")
		formatFlag   = flag.Int("format", 0, "-tree pack wire format: 1 (fixed records), 2 (delta+varint) or 3 (stream dictionary); 0 = 1")
		cpuProfile   = flag.String("cpuprofile", "", "write a host-side CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a host-side heap profile to this file at exit")
		treeFlag     = flag.String("tree", "", "reduction-tree ingest sweep over these applications (NAME.CLASS@PROCS[,...])")
		treeLevels   = flag.String("tree-levels", "2,3", "comma-separated tree level counts for -tree (each >= 2)")
		treeFanin    = flag.Int("tree-fanin", 0, "reduction-tree fan-in for -tree (0 = 8)")
		treeFlush    = flag.Int("tree-flush", 4, "ship partial-profile deltas every N packs in -tree mode (0 = only at stream end)")
		treeIters    = flag.Int("tree-iters", 2, "timesteps per -tree application (0 = official counts)")
		overloadFlag = flag.String("overload", "", "adaptive overload sweep over these applications (NAME.CLASS@PROCS[,...])")
		overloadRate = flag.String("overload-rate", "200k", "throttled analyzer ingest rate in bytes/second for -overload")
		overloadIter = flag.Int("overload-iters", 40, "timesteps per -overload application (0 = official counts)")
	)
	flag.Parse()

	var modes []string
	if *treeFlag != "" {
		modes = append(modes, "-tree")
	}
	if *overloadFlag != "" {
		modes = append(modes, "-overload")
	}
	if err := cliutil.ExclusiveModes(modes...); err != nil {
		fatalUsage(err)
	}
	if len(modes) == 0 {
		fatalUsage(errors.New("give -tree or -overload"))
	}
	platform, err := exp.PlatformByName(*platformFlag)
	if err != nil {
		fatalUsage(err)
	}
	format, err := cliutil.ResolvePackFormat(*formatFlag)
	if err != nil {
		fatalUsage(err)
	}

	// Host-side profiles cover whatever mode runs below (the simulator and
	// the analysis engine both execute on this process).
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *treeFlag != "" {
		runTreeSweep(platform, *treeFlag, *treeLevels, *treeFanin, *treeFlush, *treeIters, format)
		return
	}
	runOverloadSweep(platform, *overloadFlag, *overloadRate, *overloadIter)
}

// fatalUsage exits non-zero on a bad flag or flag combination, with a
// one-line pointer at the flag help.
func fatalUsage(err error) {
	log.Fatalf("%v (run with -h for usage)", err)
}

// runTreeSweep is the -tree mode: profile real applications through flat
// and tree topologies at equal event volume and print each tree's
// root-ingest reduction against the flat baseline. All analysis modules
// are on so the partial profiles carry their full table set.
func runTreeSweep(platform exp.Platform, apps, levels string, fanin, flush, iters, format int) {
	workloads, err := exp.Workloads(apps, iters)
	if err != nil {
		log.Fatal(err)
	}
	lv, err := cliutil.ParseInts(levels)
	if err != nil {
		log.Fatal(err)
	}
	var configs []exp.TreeConfig
	for _, l := range lv {
		if l < 2 {
			log.Fatalf("-tree-levels %d: a tree needs at least 2 levels", l)
		}
		configs = append(configs, exp.TreeConfig{Levels: l, Fanin: fanin, FlushPacks: flush})
	}
	base := exp.ProfileOptions{
		WaitState:        true,
		TemporalWindowNs: (10 * time.Millisecond).Nanoseconds(),
		Callsites:        true,
		Sizes:            true,
		PackVersion:      format,
	}
	start := time.Now()
	points, err := exp.TreeScalingSweep(platform, workloads, base, configs)
	if err != nil {
		log.Fatal(err)
	}
	exp.WriteTreeTable(os.Stdout, points)
	fmt.Fprintf(os.Stderr, "streambench: %d topologies in %.2fs\n", len(points), time.Since(start).Seconds())
}

// runOverloadSweep is the -overload mode: the same workloads profiled
// unloaded, statically overloaded, and adaptively overloaded, with the
// final adaptive report's loss accounting printed after the table.
func runOverloadSweep(platform exp.Platform, apps, rate string, iters int) {
	workloads, err := exp.Workloads(apps, iters)
	if err != nil {
		log.Fatal(err)
	}
	slowRate, err := cliutil.ParseBytes(rate)
	if err != nil {
		log.Fatal(err)
	}
	base := exp.ProfileOptions{
		Workers:          2,
		PackBytes:        8192,
		TelemetryPeriod:  50 * time.Millisecond,
		BacklogHighBytes: 64 << 10,
	}
	start := time.Now()
	points, err := exp.OverloadSweep(platform, workloads, base, float64(slowRate))
	if err != nil {
		log.Fatal(err)
	}
	exp.WriteOverloadTable(os.Stdout, points)
	adaptive := points[len(points)-1]
	if rep := adaptive.Report; rep != nil && len(rep.StreamLoss) > 0 {
		fmt.Println()
		for _, row := range rep.StreamLoss {
			fmt.Printf("%s rank %d: %d blocks dropped, %d lost in flight, %d events shed\n",
				row.App, row.Rank, row.Dropped, row.LostInFlight, row.Shed)
		}
	}
	fmt.Fprintf(os.Stderr, "streambench: overload sweep in %.2fs\n", time.Since(start).Seconds())
}
