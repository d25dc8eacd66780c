// Waitstate: the wait-state analysis the paper announces as work in
// progress (§IV-D), running on LU's pipelined wavefront sweeps.
//
// LU's SSOR solver is a textbook late-sender factory: each sweep is a
// pipeline across the process mesh, so downstream ranks post receives long
// before upstream ranks send. The analyzer pairs every send with its
// matching receive across ranks — an analysis that needs the merged view
// the blackboard holds, which is the paper's argument for moving events to
// a dedicated analysis partition instead of reducing them locally.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/exp"
	"repro/internal/nas"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	lu, err := nas.LU(nas.ClassC, 64, 4)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := exp.ProfileRun(exp.Tera100(), []*nas.Workload{lu}, exp.ProfileOptions{
		WaitState: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	ch := rep.Chapters[0]
	ws := ch.WaitState

	fmt.Printf("%s on %d processes, wall %.3fs\n", ch.App, ch.Procs, ch.WallTime.Seconds())
	fmt.Printf("matched send/recv pairs: %d (unmatched halves: %d)\n", ws.Pairs(), ws.Unmatched())
	fmt.Printf("total late-sender wait:  %v\n", time.Duration(ws.TotalLateNs()))

	late := ws.AppendLateSenderMap(nil)
	st := report.Stats(late)
	fmt.Printf("late-sender wait per rank: min %v, max %v (imbalance %.2f)\n",
		time.Duration(st.Min), time.Duration(st.Max), st.Imbalance)
	fmt.Println("\nlate-sender wait map (wavefront corners suffer least, far corner most):")
	fmt.Print(report.DensityASCII(late, 64))

	hits := ws.LateSenderHits()
	var totalHits int64
	for _, h := range hits {
		totalHits += h
	}
	fmt.Printf("\nlate-sender occurrences: %d across %d ranks\n", totalHits, ch.Procs)
}
