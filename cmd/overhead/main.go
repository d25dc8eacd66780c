// Command overhead regenerates the paper's Figure 15: relative
// instrumentation overhead of the online coupling (one analysis core per
// instrumented process, the paper's 1:1 ratio) for the NAS benchmarks and
// EulerMHD across process counts, together with each run's average
// instrumentation data bandwidth Bi.
//
// The paper's full sweep is:
//
//	overhead -procs 64,144,256,484,900,1156 -iters 0
//
// (iters 0 selects the official NAS iteration counts; the default is a
// reduced count that preserves overhead ratios, see DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/exp/runner"
	"repro/internal/nas"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("overhead: ")
	var (
		benchFlag    = flag.String("benches", paperBenches(), "benchmark list (NAME.CLASS or EulerMHD)")
		procsFlag    = flag.String("procs", "64,144,256,484,900", "process counts (snapped per benchmark)")
		itersFlag    = flag.Int("iters", 12, "timesteps per run (0 = official NAS counts)")
		ratioFlag    = flag.Int("ratio", 1, "writer/reader ratio for the analysis partition")
		repeatFlag   = flag.Int("repeats", 3, "noise-seed passes averaged per point (the paper averages 3)")
		platformFlag = flag.String("platform", "tera100", "platform model (tera100 or curie)")
		jFlag        = flag.Int("j", 0, "parallel sweep workers (0 = all cores, 1 = serial); the table is identical for any value")
		formatFlag   = flag.Int("format", 0, "pack wire format: 1 (fixed records), 2 (delta+varint) or 3 (stream dictionary); 0 = 1, the seed behavior")
	)
	flag.Parse()

	procs, err := cliutil.ParseInts(*procsFlag)
	if err != nil {
		log.Fatal(err)
	}
	platform, err := exp.PlatformByName(*platformFlag)
	if err != nil {
		log.Fatal(err)
	}
	cases, err := parseCases(*benchFlag)
	if err != nil {
		log.Fatal(err)
	}

	// Resolve the measurement grid up front, then fan the independent
	// simulations out over the pool.
	grid := exp.Fig15Grid(cases, procs, *itersFlag)
	packVersion, err := cliutil.ResolvePackFormat(*formatFlag)
	if err != nil {
		log.Fatal(err)
	}
	points, err := runner.Run(len(grid), *jFlag, func(i int) (exp.OverheadPoint, error) {
		pt, err := exp.MeasureOverheadAvg(platform, grid[i], exp.ToolOnline, *ratioFlag, *repeatFlag, packVersion)
		if err != nil {
			return exp.OverheadPoint{}, err
		}
		// Progress on stderr; lines interleave by completion when -j > 1
		// but the stdout table below stays in grid order regardless.
		fmt.Fprintf(os.Stderr, "done %s procs=%d ovh=%.2f%%\n", pt.Bench, pt.Procs, pt.OverheadPct)
		return pt, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if packVersion > trace.PackV1 {
		var wire, logical int64
		for _, pt := range points {
			wire += pt.DataBytes
			logical += pt.LogicalBytes
		}
		if wire > 0 && logical > 0 {
			fmt.Fprintf(os.Stderr, "pack v%d: %d bytes on wire (logical %d), compression %.2fx (%.1f%% reduction)\n",
				packVersion, wire, logical, float64(logical)/float64(wire), 100*(1-float64(wire)/float64(logical)))
		}
	}
	exp.WriteOverheadTable(os.Stdout,
		fmt.Sprintf("Figure 15: online-coupling overhead at ratio 1:%d on %s (%d passes averaged)",
			*ratioFlag, platform.Name, *repeatFlag),
		points)
}

// paperBenches renders the paper's Figure 15 series as a -benches value.
func paperBenches() string {
	var names []string
	for _, c := range exp.Fig15Cases() {
		name := c.Kind
		if c.Class != 0 {
			name += "." + string(c.Class)
		}
		names = append(names, name)
	}
	return strings.Join(names, ",")
}

func parseCases(s string) ([]exp.Fig15Case, error) {
	specs, err := cliutil.ParseBenches(s)
	if err != nil {
		return nil, err
	}
	out := make([]exp.Fig15Case, 0, len(specs))
	for _, spec := range specs {
		out = append(out, exp.Fig15Case{Kind: spec.Kind, Class: nas.Class(spec.Class)})
	}
	return out, nil
}
