// Command profiler runs one or more instrumented applications coupled to
// the distributed analysis engine and writes the resulting profiling
// report — the full pipeline behind the paper's Figures 17 and 18.
//
// Applications are given as NAME.CLASS@PROCS items; several items run
// concurrently in one MPMD job and are profiled by one multi-level
// blackboard, each getting its own report chapter:
//
//	profiler -apps CG.D@128                      # Figure 17a/17b
//	profiler -apps LU.D@1024 -iters 10           # Figure 18a/18b
//	profiler -apps BT.D@1024 -iters 10           # Figure 18c/18d/18e
//	profiler -apps EulerMHD@2048 -iters 5        # Figure 17c
//	profiler -apps LU.C@64,CG.C@64               # concurrent profiling
//
// Besides the textual report (stdout), -out writes per-application
// artifacts: communication matrix CSV, topology DOT graph, and density-map
// PGM images.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/nas"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("profiler: ")
	var (
		appsFlag     = flag.String("apps", "CG.D@128", "applications: NAME.CLASS@PROCS[,...]")
		itersFlag    = flag.Int("iters", 6, "timesteps per application (0 = official counts)")
		analyzerFlag = flag.Int("analyzers", 0, "analysis partition size (0 = procs/16)")
		workersFlag  = flag.Int("workers", 0, "blackboard worker threads (0 = GOMAXPROCS)")
		outFlag      = flag.String("out", "", "directory for CSV/DOT/PGM artifacts (empty = none)")
		latexFlag    = flag.String("latex", "", "write the report as a compilable LaTeX document to this file")
		jsonFlag     = flag.String("json", "", "write the full analysis as JSON to this file")
		waitFlag     = flag.Bool("waitstate", false, "enable the late-sender wait-state analysis")
		temporalFlag = flag.Duration("temporal", 0, "temporal-map bucket width in virtual time (e.g. 100ms; 0 = off)")
		sitesFlag    = flag.Bool("callsites", false, "enable the per-call-site breakdown")
		sizesFlag    = flag.Bool("sizes", false, "enable the message-size distribution")
		exportFlag   = flag.String("export", "", "directory for selective otf2lite trace archives (one per app; empty = off)")
		exportP2P    = flag.Bool("export-p2p-only", false, "export only point-to-point events")
		platformFlag = flag.String("platform", "tera100", "platform model (tera100 or curie)")
		telFlag      = flag.Bool("telemetry", false, "stream engine-health meta-events and append a health chapter + JSON summary")
		telPeriod    = flag.Duration("telemetry-period", 0, "virtual-time sampling period for -telemetry (0 = 10ms)")
		formatFlag   = flag.Int("format", 0, "pack wire format: 1 (fixed records), 2 (delta+varint) or 3 (stream dictionary, fused analyzer decode); 0 = 1, the seed behavior")
		replicasFlag = flag.Int("replicas", 0, "per-worker module replicas (0 = off): lock-free parallel folding with epoch merges; profiles stay byte-identical, incompatible with -export")
		treeLevels   = flag.Int("tree-levels", 0, "analysis tree levels: <=1 flat pipeline, L>=2 adds L-1 aggregator tiers between leaves and the root blackboard")
		treeFanin    = flag.Int("tree-fanin", 0, "reduction-tree fan-in (0 = 8); only with -tree-levels >= 2")
		treeFlush    = flag.Int("tree-flush", 0, "ship partial-profile deltas every N packs (0 = only at stream end); only with -tree-levels >= 2")
		windowFlag   = flag.Duration("window", 0, "windowed analysis: slice virtual time into windows of this width, each with its own report chapter section (0 = off)")
		slideFlag    = flag.Duration("window-slide", 0, "sliding-window stride for -window (0 = tumbling)")
		graceFlag    = flag.Duration("window-grace", 0, "lateness grace before an event counts against its window's completeness bound")
	)
	flag.Parse()

	format, err := cliutil.ResolvePackFormat(*formatFlag)
	if err != nil {
		fatalUsage(err)
	}
	if *treeLevels <= 1 && (*treeFanin != 0 || *treeFlush != 0) {
		fatalUsage(fmt.Errorf("-tree-fanin/-tree-flush need a reduction tree (-tree-levels >= 2)"))
	}
	if *exportP2P && *exportFlag == "" {
		fatalUsage(fmt.Errorf("-export-p2p-only needs -export"))
	}
	if *replicasFlag > 0 && *exportFlag != "" {
		fatalUsage(fmt.Errorf("-replicas is incompatible with -export (the exporter is an IO proxy, not a mergeable module)"))
	}
	platform, err := exp.PlatformByName(*platformFlag)
	if err != nil {
		fatalUsage(err)
	}
	workloads, err := parseApps(*appsFlag, *itersFlag)
	if err != nil {
		fatalUsage(err)
	}

	opts := exp.ProfileOptions{
		Analyzers:        *analyzerFlag,
		Workers:          *workersFlag,
		WaitState:        *waitFlag,
		TemporalWindowNs: temporalFlag.Nanoseconds(),
		Callsites:        *sitesFlag,
		Sizes:            *sizesFlag,
		PackVersion:      format,
		Replicas:         *replicasFlag,
		Telemetry:        *telFlag,
		TelemetryPeriod:  *telPeriod,
		TreeLevels:       *treeLevels,
		TreeFanin:        *treeFanin,
		TreeFlushPacks:   *treeFlush,
		WindowNs:         windowFlag.Nanoseconds(),
		WindowSlideNs:    slideFlag.Nanoseconds(),
		WindowGraceNs:    graceFlag.Nanoseconds(),
	}
	if *exportFlag != "" {
		if err := os.MkdirAll(*exportFlag, 0o755); err != nil {
			log.Fatal(err)
		}
		if *exportP2P {
			opts.ExportFilter = func(e *trace.Event) bool { return e.Kind.IsP2P() }
		}
		opts.Export = func(app string, m *analysis.ExportModule) {
			name := filepath.Join(*exportFlag, strings.ReplaceAll(app, ".", "_")+".o2l")
			f, err := os.Create(name)
			if err != nil {
				log.Fatal(err)
			}
			if err := m.WriteArchive(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "exported %d events to %s (%d filtered out)\n",
				m.Exported(), name, m.Dropped())
		}
	}
	rep, err := exp.ProfileRun(platform, workloads, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if *latexFlag != "" {
		f, err := os.Create(*latexFlag)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.RenderLaTeX(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "LaTeX report written to %s\n", *latexFlag)
	}
	if *jsonFlag != "" {
		f, err := os.Create(*jsonFlag)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteJSON(f, false); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "JSON analysis written to %s\n", *jsonFlag)
	}
	if *outFlag != "" {
		if err := writeArtifacts(*outFlag, rep); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "artifacts written to %s\n", *outFlag)
	}
	if *telFlag && rep.EngineHealth != nil {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep.EngineHealth.Summary()); err != nil {
			log.Fatal(err)
		}
	}
}

// fatalUsage exits non-zero on a bad flag or flag combination, with a
// one-line pointer at the flag help.
func fatalUsage(err error) {
	log.Fatalf("%v (run with -h for usage)", err)
}

func parseApps(s string, iters int) ([]*nas.Workload, error) {
	specs, err := cliutil.ParseApps(s)
	if err != nil {
		return nil, err
	}
	out := make([]*nas.Workload, 0, len(specs))
	for _, spec := range specs {
		procs := nas.ValidProcs(spec.Kind, spec.Procs)
		w, err := nas.ByName(spec.Kind, nas.Class(spec.Class), procs, iters)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

func writeArtifacts(dir string, rep *report.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, ch := range rep.Chapters {
		base := filepath.Join(dir, strings.ReplaceAll(ch.App, ".", "_"))
		mat := ch.Topology.Matrix()
		files := map[string][]byte{
			base + "_matrix_bytes.csv": []byte(report.MatrixCSV(mat, analysis.MetricBytes)),
			base + "_matrix_hits.csv":  []byte(report.MatrixCSV(mat, analysis.MetricHits)),
			base + "_topology.dot":     []byte(report.DOT(ch.App, mat, analysis.MetricBytes)),
			base + "_send_hits.pgm":    report.DensityPGM(ch.Density.Map(trace.KindSend, analysis.MetricHits)),
			base + "_p2p_size.pgm":     report.DensityPGM(ch.Density.P2PSizeMap()),
			base + "_wait_time.pgm":    report.DensityPGM(ch.Density.WaitTimeMap()),
			base + "_coll_time.pgm":    report.DensityPGM(ch.Density.CollectiveTimeMap()),
		}
		for name, data := range files {
			if err := os.WriteFile(name, data, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
