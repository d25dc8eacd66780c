// Command replay runs the analysis modules post-mortem over an exported
// trace archive — the classical tool work-flow the paper replaces, kept as
// an interoperability path: the online engine's "IO proxy" module (§VI)
// exports a selective otf2lite archive, and replay regenerates profiles,
// topology, density maps and optional wait-state analysis from it, without
// any live application.
//
// This demonstrates the paper's observation that "streamed analysis is
// very close to post-mortem analysis as it is decoupled from the
// execution": the exact same knowledge sources run in both modes.
//
//	profiler -apps LU.C@64 -export lu.o2l     # online run, selective export
//	replay -trace lu.o2l -waitstate           # post-mortem re-analysis
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/blackboard"
	"repro/internal/otf2lite"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("replay: ")
	var (
		traceFlag   = flag.String("trace", "", "otf2lite archive to analyse (required)")
		appFlag     = flag.String("app", "replayed", "application name for the report chapter")
		waitFlag    = flag.Bool("waitstate", false, "enable the late-sender wait-state analysis")
		sitesFlag   = flag.Bool("callsites", false, "enable the per-call-site breakdown")
		tempFlag    = flag.Duration("temporal", 0, "temporal-map bucket width (0 = off)")
		workersFlag = flag.Int("workers", 0, "blackboard worker threads (0 = GOMAXPROCS)")
		latexFlag   = flag.String("latex", "", "write the report as LaTeX to this file")
		jsonFlag    = flag.String("json", "", "write the full analysis as JSON to this file")
	)
	flag.Parse()
	if *traceFlag == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*traceFlag)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	// First pass: definitions only, to size the modules.
	arch, err := otf2lite.Read(f, nil)
	if err != nil {
		log.Fatal(err)
	}
	maxRank := int32(-1)
	for _, r := range arch.Ranks {
		if r > maxRank {
			maxRank = r
		}
	}
	procs := int(maxRank) + 1
	if procs < 1 {
		log.Fatal("archive defines no locations")
	}
	fmt.Fprintf(os.Stderr, "archive: %d events, %d ranks, %d regions\n",
		arch.Events, len(arch.Ranks), len(arch.Kinds))

	workers := *workersFlag
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bb := blackboard.New(blackboard.Config{Workers: workers})
	defer bb.Close()
	pipe, err := analysis.NewPipeline(bb, *appFlag, procs)
	if err != nil {
		log.Fatal(err)
	}
	ch := &report.Chapter{
		App: *appFlag, Procs: procs,
		Profiler: pipe.Profiler, Topology: pipe.Topology, Density: pipe.Density,
	}
	if *waitFlag {
		if ch.WaitState, err = pipe.EnableWaitState(); err != nil {
			log.Fatal(err)
		}
	}
	if *sitesFlag {
		if ch.Callsites, err = pipe.EnableCallsites(); err != nil {
			log.Fatal(err)
		}
	}
	if *tempFlag > 0 {
		if ch.Temporal, err = pipe.EnableTemporal(tempFlag.Nanoseconds()); err != nil {
			log.Fatal(err)
		}
	}

	// Second pass: replay events through the same pack path the online
	// engine uses, so the identical fold KS feeds the modules.
	if _, err := f.Seek(0, 0); err != nil {
		log.Fatal(err)
	}
	builder := trace.NewPackBuilder(0, -1, trace.MinRecordSize, 1<<20)
	var lastT int64
	if _, err := otf2lite.Read(f, func(e *trace.Event) {
		if e.TEnd > lastT {
			lastT = e.TEnd
		}
		if builder.Add(e) {
			pipe.PostPack(builder.Take())
		}
	}); err != nil {
		log.Fatal(err)
	}
	if buf := builder.Take(); buf != nil {
		pipe.PostPack(buf)
	}
	bb.Drain()
	ch.WallTime = time.Duration(lastT)

	rep := &report.Report{Title: "post-mortem replay of " + *traceFlag, Chapters: []*report.Chapter{ch}}
	if err := rep.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if *latexFlag != "" {
		out, err := os.Create(*latexFlag)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.RenderLaTeX(out); err != nil {
			log.Fatal(err)
		}
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if *jsonFlag != "" {
		out, err := os.Create(*jsonFlag)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteJSON(out, false); err != nil {
			log.Fatal(err)
		}
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
	}
}
