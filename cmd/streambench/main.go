// Command streambench regenerates the paper's Figure 14: global VMPI
// stream throughput between a writer and a reader partition, swept over
// writer counts and writer/reader ratios, with the prorated filesystem
// bandwidth as the comparison column.
//
// The paper's headline configuration (2560 writers + 2560 readers, 1 GB
// per writer, 1 MB blocks) is reproduced with:
//
//	streambench -writers 2560 -ratios 1 -bytes 1G
//
// The default sweep is smaller so it completes in seconds.
//
// With -tree, the command instead measures the multi-level reduction
// tree: the named applications are profiled through the flat pipeline
// and through each requested tree topology, and the table compares every
// topology's root-blackboard ingest volume against the flat baseline:
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
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/exp/runner"
	"repro/internal/nas"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("streambench: ")
	var (
		writersFlag  = flag.String("writers", "32,128,512,2560", "comma-separated writer counts")
		ratiosFlag   = flag.String("ratios", "1,2,4,8,16,32,64", "comma-separated writer/reader ratios")
		bytesFlag    = flag.String("bytes", "64M", "bytes streamed per writer (e.g. 64M, 1G)")
		blockFlag    = flag.String("block", "1M", "stream block size")
		platformFlag = flag.String("platform", "tera100", "platform model (tera100 or curie)")
		jFlag        = flag.Int("j", 0, "parallel sweep workers (0 = one per CPU, 1 = serial); output is identical for any value")
		telFlag      = flag.Bool("telemetry", false, "re-run the best 1:1 point with engine telemetry and print a JSON health summary")
		formatFlag   = flag.Int("format", 0, "stream real event packs in wire format 2 (delta+varint) or 3 (stream dictionary); 0 or 1 = size-only v1 blocks, the seed behavior")
		cpuProfile   = flag.String("cpuprofile", "", "write a host-side CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a host-side heap profile to this file at exit")
		treeFlag     = flag.String("tree", "", "reduction-tree ingest sweep over these applications (NAME.CLASS@PROCS[,...]) instead of the Figure 14 stream sweep")
		treeLevels   = flag.String("tree-levels", "2,3", "comma-separated tree level counts for -tree (each >= 2)")
		treeFanin    = flag.Int("tree-fanin", 0, "reduction-tree fan-in for -tree (0 = 8)")
		treeFlush    = flag.Int("tree-flush", 4, "ship partial-profile deltas every N packs in -tree mode (0 = only at stream end)")
		treeIters    = flag.Int("tree-iters", 2, "timesteps per -tree application (0 = official counts)")
		overloadFlag = flag.String("overload", "", "adaptive overload sweep over these applications (NAME.CLASS@PROCS[,...]) instead of the Figure 14 stream sweep")
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
	writers, err := cliutil.ParseInts(*writersFlag)
	if err != nil {
		fatalUsage(err)
	}
	ratios, err := cliutil.ParseInts(*ratiosFlag)
	if err != nil {
		fatalUsage(err)
	}
	perWriter, err := cliutil.ParseBytes(*bytesFlag)
	if err != nil {
		fatalUsage(err)
	}
	block, err := cliutil.ParseBytes(*blockFlag)
	if err != nil {
		fatalUsage(err)
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
	if *overloadFlag != "" {
		runOverloadSweep(platform, *overloadFlag, *overloadRate, *overloadIter)
		return
	}

	start := time.Now()
	var points []exp.StreamPoint
	if format > trace.PackV1 {
		// Packed mode: writers encode the deterministic Fig14 workload
		// through the selected codec and readers decode every block, so the
		// compression shows up in the simulated GB/s. The stdout table keeps
		// the Figure 14 format; wire volume and ratio go to stderr.
		type gridPoint struct{ writers, ratio int }
		var grid []gridPoint
		for _, nw := range writers {
			for _, ratio := range ratios {
				if ratio <= nw {
					grid = append(grid, gridPoint{nw, ratio})
				}
			}
		}
		packed, err := runner.Run(len(grid), *jFlag, func(i int) (exp.PackedStreamPoint, error) {
			g := grid[i]
			return exp.StreamThroughputPacked(platform, g.writers, g.ratio, perWriter, block, exp.EventRecordSize, format)
		})
		if err != nil {
			log.Fatal(err)
		}
		var wire, logical, events int64
		for _, pt := range packed {
			points = append(points, pt.StreamPoint)
			wire += pt.WireBytes
			logical += pt.LogicalBytes
			events += pt.Events
		}
		if wire > 0 {
			fmt.Fprintf(os.Stderr, "streambench: pack v%d: %d events, %d bytes on wire (logical %d), compression %.2fx (%.1f%% reduction)\n",
				format, events, wire, logical, float64(logical)/float64(wire), 100*(1-float64(wire)/float64(logical)))
		}
	} else {
		points, err = exp.StreamSweepJ(platform, writers, ratios, perWriter, block, *jFlag)
		if err != nil {
			log.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	exp.WriteStreamTable(os.Stdout, points)
	// Engine wall-clock (host time, not simulated time) on stderr so the
	// table on stdout stays byte-comparable across -j values.
	fmt.Fprintf(os.Stderr, "streambench: %d points in %.2fs (%.2f points/sec)\n",
		len(points), elapsed.Seconds(), float64(len(points))/elapsed.Seconds())

	// Headline check mirroring the paper's text: best ratio-1 point vs the
	// prorated filesystem bandwidth.
	var best exp.StreamPoint
	for _, pt := range points {
		if pt.Ratio == 1 && pt.Throughput > best.Throughput {
			best = pt
		}
	}
	if best.Writers > 0 {
		fmt.Printf("\nbest 1:1 point: %d writers + %d readers -> %.1f GB/s (prorated FS: %.1f GB/s)\n",
			best.Writers, best.Readers, best.Throughput/1e9, best.FSShare/1e9)
	}

	if *telFlag && best.Writers > 0 {
		_, sum, err := exp.StreamThroughputTelemetry(platform, best.Writers, best.Ratio, perWriter, block)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			log.Fatal(err)
		}
	}
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
	specs, err := cliutil.ParseApps(apps)
	if err != nil {
		log.Fatal(err)
	}
	workloads := make([]*nas.Workload, 0, len(specs))
	for _, spec := range specs {
		procs := nas.ValidProcs(spec.Kind, spec.Procs)
		w, err := nas.ByName(spec.Kind, nas.Class(spec.Class), procs, iters)
		if err != nil {
			log.Fatal(err)
		}
		workloads = append(workloads, w)
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
	specs, err := cliutil.ParseApps(apps)
	if err != nil {
		log.Fatal(err)
	}
	workloads := make([]*nas.Workload, 0, len(specs))
	for _, spec := range specs {
		procs := nas.ValidProcs(spec.Kind, spec.Procs)
		w, err := nas.ByName(spec.Kind, nas.Class(spec.Class), procs, iters)
		if err != nil {
			log.Fatal(err)
		}
		workloads = append(workloads, w)
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
