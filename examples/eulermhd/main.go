// EulerMHD: online profiling of the paper's representative C++ MPI
// application (a 2-D ideal-MHD solver), reproducing the topology view of
// Figure 17c and the associated density maps.
//
// The skeleton runs on a 2-D Cartesian process mesh with halo exchanges,
// a global dt reduction per step and periodic diagnostics output; the
// analyzer builds its communication matrix and density maps online and
// the example prints them, plus the Graphviz source of the topology
// graph.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/exp"
	"repro/internal/nas"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	const procs = 64
	app, err := nas.EulerMHD(procs, 5)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := exp.ProfileRun(exp.Tera100(), []*nas.Workload{app}, exp.ProfileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ch := rep.Chapters[0]

	if err := rep.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// A 2-D mesh shows 4-neighbour interior ranks, like the paper's
	// EulerMHD topology.
	degree := make([]int, procs)
	for _, e := range ch.Topology.AppendEdges(nil) {
		degree[e.Src]++
	}
	fmt.Printf("\ninterior rank degree: %d (corner: %d)\n", degree[procs/2+4], degree[0])

	// Emit the Graphviz source the paper renders with the dot tool.
	fmt.Println("\n--- topology.dot (render with: dot -Tpng) ---")
	fmt.Printf("%s", rep.Artifacts()["EulerMHD_topology.dot"])

	// The MPI_Send-hits density map distinguishes mesh border from
	// interior, as in Figure 18a.
	fmt.Println("--- MPI_Isend hits density map ---")
	fmt.Print(report.DensityASCII(ch.Density.AppendMap(nil, trace.KindIsend, analysis.MetricHits), 64))
}
