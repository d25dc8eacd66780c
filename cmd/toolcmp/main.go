// Command toolcmp regenerates the paper's Figure 16: relative overhead of
// NAS SP class D under five measurement-tool configurations — Reference,
// Scalasca, Score-P profile, Score-P trace through SIONlib files, and the
// paper's online coupling — across process counts on the Curie platform
// model, plus the per-tool measurement data volumes the paper quotes
// (Score-P traces growing 313 MB → 116 GB, online 923.93 MB → 333.22 GB).
//
// The paper's full sweep is:
//
//	toolcmp -procs 256,1024,2025,4096 -iters 0
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("toolcmp: ")
	var (
		procsFlag    = flag.String("procs", "256,1024,2025,4096", "process counts (snapped to squares)")
		itersFlag    = flag.Int("iters", 12, "timesteps per run (0 = official SP.D count)")
		platformFlag = flag.String("platform", "curie", "platform model (tera100 or curie)")
		jFlag        = flag.Int("j", 0, "parallel sweep workers (0 = all cores, 1 = serial); output is identical for any value")
		formatFlag   = flag.Int("format", 0, "online tool pack wire format: 1 (fixed records), 2 (delta+varint) or 3 (stream dictionary); 0 = 1, the seed behavior")
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

	packVersion, err := cliutil.ResolvePackFormat(*formatFlag)
	if err != nil {
		log.Fatal(err)
	}
	points, err := exp.Fig16SweepJ(platform, procs, *itersFlag, *jFlag, packVersion)
	if err != nil {
		log.Fatal(err)
	}
	exp.WriteOverheadTable(os.Stdout,
		fmt.Sprintf("Figure 16: SP.D tool comparison on %s", platform.Name), points)
	if packVersion > trace.PackV1 {
		var wire, logical int64
		for _, pt := range points {
			if pt.Tool == exp.ToolOnline {
				wire += pt.DataBytes
				logical += pt.LogicalBytes
			}
		}
		if wire > 0 && logical > 0 {
			fmt.Fprintf(os.Stderr, "pack v%d: online tool %d bytes on wire (logical %d), compression %.2fx (%.1f%% reduction)\n",
				packVersion, wire, logical, float64(logical)/float64(wire), 100*(1-float64(wire)/float64(logical)))
		}
	}

	// Trace-volume growth summary (paper §IV-C).
	fmt.Println("\n# measurement data volume by tool")
	byTool := map[exp.Tool][]exp.OverheadPoint{}
	for _, pt := range points {
		byTool[pt.Tool] = append(byTool[pt.Tool], pt)
	}
	for _, tool := range exp.Tools() {
		pts := byTool[tool]
		if len(pts) == 0 || tool == exp.ToolReference {
			continue
		}
		first, last := pts[0], pts[len(pts)-1]
		fmt.Printf("%-28s %8d procs: %10.2f MB -> %8d procs: %10.2f GB\n",
			tool, first.Procs, float64(first.DataBytes)/(1<<20),
			last.Procs, float64(last.DataBytes)/(1<<30))
	}
}
