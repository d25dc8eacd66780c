// Command profiler profiles instrumented applications with the distributed
// analysis engine and writes the resulting report — the full pipeline
// behind the paper's Figures 17 and 18. It is the one command that
// describes a run: the events come from the simulator, or with -trace from
// an archive an earlier run recorded (-export FILE: the frame log of the
// daemon session that run would have been, its module selection and
// windows included). A simulated run is analysed in-process, or with
// -daemon in a session on a profilerd (`profilerctl` prints a daemon's
// status); an archive is folded in a session of an in-process daemon, the
// engine profilerd runs.
// Several NAME.CLASS@PROCS items run concurrently in one MPMD job, one
// report chapter each; -out, -latex and -json add CSV/DOT/PGM artifacts,
// a LaTeX document and the JSON analysis:
//
//	profiler -apps LU.C@64,CG.C@64 -waitstate -export run.pfl
//	profiler -trace run.pfl
//	profiler -apps CG.A@16 -daemon 127.0.0.1:7101 -diff-every 4
//
// -fig NAME regenerates one entry of the paper's figure table
// (exp.Figures: 14, 15, 16, 17cg, 17euler, 18lu, 18bt, fault, tree,
// overload; or all) at its paths under results/, relative to the working
// directory. Each mode takes only its row of modeFlags, and a flag that
// refines another is refused without it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/nas"
	"repro/internal/report"
	"repro/internal/serviced"
)

// modeFlags names the flags each mode takes. The mode is the first of -fig,
// -trace and -daemon that is set, and the simulator when none is.
var modeFlags = map[string]string{
	"simulate": "apps iters analyzers workers out latex json waitstate temporal callsites sizes export platform telemetry telemetry-period format replicas tree-levels tree-fanin tree-flush window window-slide window-grace",
	"fig":      "fig",
	"trace":    "trace out latex json",
	"daemon":   "daemon diff-every apps iters platform format waitstate temporal callsites sizes window window-slide window-grace",
}

// config is one parsed command line.
type config struct {
	mode                     string
	fig, trace, daemon       string
	out, latex, json, export string
	diffEvery                int
	platform                 exp.Platform
	workloads                []*nas.Workload
	opts                     exp.ProfileOptions
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("profiler: ")
	c, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatalf("%v (run with -h for usage)", err)
	}
	switch c.mode {
	case "fig":
		err = writeFigures(c.fig)
	case "daemon":
		err = runDaemon(c, os.Stdout, os.Stderr)
	default:
		err = runLocal(c, os.Stdout)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// parse reads args into a config on fs, refusing a flag the mode does not
// take and a flag whose prerequisite is missing.
func parse(fs *flag.FlagSet, args []string) (*config, error) {
	c := &config{}
	o := &c.opts
	var (
		apps, platform                            string
		iters, format, replicas                   int
		temporal, telPeriod, window, slide, grace time.Duration
	)
	fs.StringVar(&apps, "apps", "CG.D@128", "applications: NAME.CLASS@PROCS[,...]")
	fs.IntVar(&iters, "iters", 6, "timesteps per application (0 = official counts)")
	fs.IntVar(&o.Analyzers, "analyzers", 0, "analysis partition size (0 = procs/16)")
	fs.IntVar(&o.Workers, "workers", 0, "blackboard worker threads (0 = GOMAXPROCS)")
	fs.StringVar(&c.out, "out", "", "directory for CSV/DOT/PGM artifacts (empty = none)")
	fs.StringVar(&c.latex, "latex", "", "write the report as a compilable LaTeX document to this file")
	fs.StringVar(&c.json, "json", "", "write the full analysis as JSON to this file")
	fs.BoolVar(&o.WaitState, "waitstate", false, "enable the late-sender wait-state analysis")
	fs.DurationVar(&temporal, "temporal", 0, "temporal-map bucket width in virtual time (e.g. 100ms; 0 = off)")
	fs.BoolVar(&o.Callsites, "callsites", false, "enable the per-call-site breakdown")
	fs.BoolVar(&o.Sizes, "sizes", false, "enable the message-size distribution")
	fs.StringVar(&c.export, "export", "", "record the run in this archive file for -trace (empty = off)")
	fs.StringVar(&platform, "platform", "tera100", "platform model (tera100 or curie)")
	fs.BoolVar(&o.Telemetry, "telemetry", false, "stream engine-health meta-events and append a health chapter + JSON summary")
	fs.DurationVar(&telPeriod, "telemetry-period", 0, "virtual-time sampling period for -telemetry (0 = 10ms)")
	fs.IntVar(&format, "format", 0, "pack wire format: 1 (fixed records), 2 (delta+varint) or 3 (stream dictionary, fused analyzer decode); 0 = 1, the seed behavior")
	fs.IntVar(&replicas, "replicas", 0, "per-worker module replicas (0 = off): lock-free parallel folding with epoch merges; profiles stay byte-identical")
	fs.IntVar(&o.TreeLevels, "tree-levels", 0, "analysis tree levels: <=1 flat pipeline, L>=2 adds L-1 aggregator tiers between leaves and the root blackboard")
	fs.IntVar(&o.TreeFanin, "tree-fanin", 0, "reduction-tree fan-in (0 = 8); only with -tree-levels >= 2")
	fs.IntVar(&o.TreeFlushPacks, "tree-flush", 0, "ship partial-profile deltas every N packs (0 = only at stream end); only with -tree-levels >= 2")
	fs.DurationVar(&window, "window", 0, "windowed analysis: slice virtual time into windows of this width, each with its own report chapter section (0 = off)")
	fs.DurationVar(&slide, "window-slide", 0, "sliding-window stride for -window (0 = tumbling)")
	fs.DurationVar(&grace, "window-grace", 0, "lateness grace before an event counts against its window's completeness bound")
	fs.StringVar(&c.fig, "fig", "", "write the figure table entry NAME (or all) at its paths under results/; takes no other flag")
	fs.StringVar(&c.trace, "trace", "", "analyse the run this -export archive recorded instead of simulating")
	fs.StringVar(&c.daemon, "daemon", "", "analyse in a session on the profilerd at this TCP address instead of in-process")
	fs.IntVar(&c.diffEvery, "diff-every", 0, "with -daemon: poll Diff every N packs and verify the replayed state against a Snapshot (0 = off)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.TemporalWindowNs, o.TelemetryPeriod, o.Replicas = temporal.Nanoseconds(), telPeriod, replicas
	o.WindowNs, o.WindowSlideNs, o.WindowGraceNs = window.Nanoseconds(), slide.Nanoseconds(), grace.Nanoseconds()

	c.mode = "simulate"
	for _, m := range []string{"daemon", "trace", "fig"} {
		if fs.Lookup(m).Value.String() != "" {
			c.mode = m
		}
	}
	// needs names, for each flag that refines another, what it needs of
	// that one and whether the command line has it.
	needs := map[string]struct {
		what string
		met  bool
	}{
		"tree-fanin":       {"needs a reduction tree (-tree-levels >= 2)", o.TreeLevels >= 2},
		"tree-flush":       {"needs a reduction tree (-tree-levels >= 2)", o.TreeLevels >= 2},
		"window-slide":     {"needs -window", window > 0},
		"window-grace":     {"needs -window", window > 0},
		"telemetry-period": {"needs -telemetry", o.Telemetry},
		"diff-every":       {"needs -daemon", c.daemon != ""},
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if n, ok := needs[f.Name]; err == nil && ok && !n.met {
			err = fmt.Errorf("-%s %s", f.Name, n.what)
		} else if err == nil && !slices.Contains(strings.Fields(modeFlags[c.mode]), f.Name) {
			err = fmt.Errorf("%s mode takes no -%s", c.mode, f.Name)
		}
	})
	if err != nil {
		return nil, err
	}
	if o.PackVersion, err = cliutil.ResolvePackFormat(format); err != nil {
		return nil, err
	}
	if c.mode == "simulate" || c.mode == "daemon" {
		if c.platform, err = exp.PlatformByName(platform); err != nil {
			return nil, err
		}
		if c.workloads, err = exp.Workloads(apps, iters); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// runLocal analyses in-process, the simulated run or the archive's, and
// writes the report to stdout and what the output flags ask for.
func runLocal(c *config, stdout io.Writer) error {
	rep, err := analyseLocal(c)
	if err != nil {
		return err
	}
	if err := rep.Render(stdout); err != nil {
		return err
	}
	files := map[string][]byte{}
	for path, write := range map[string]func(io.Writer) error{
		c.latex: rep.RenderLaTeX,
		c.json:  func(w io.Writer) error { return rep.WriteJSON(w, false) },
	} {
		if path == "" {
			continue
		}
		var b bytes.Buffer
		if err := write(&b); err != nil {
			return err
		}
		files[path] = b.Bytes()
	}
	if c.out != "" {
		for name, data := range rep.Artifacts() {
			files[filepath.Join(c.out, name)] = data
		}
	}
	if err := writeFiles(files); err != nil {
		return err
	}
	if rep.EngineHealth != nil {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep.EngineHealth.Summary())
	}
	return nil
}

// analyseLocal replays the -trace archive in a session of an in-process
// daemon whose quota is off, so nothing is shed, or runs the simulation and
// records it in the -export archive when one is asked for.
func analyseLocal(c *config) (*report.Report, error) {
	if c.mode == "trace" {
		f, err := os.Open(c.trace)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rep, err := serviced.New(serviced.Options{}).Replay(f)
		if err == nil {
			rep.Title = "post-mortem replay of " + c.trace
		}
		return rep, err
	}
	if c.export == "" {
		return exp.ProfileRun(c.platform, c.workloads, c.opts)
	}
	f, err := os.Create(c.export)
	if err != nil {
		return nil, err
	}
	c.opts.Export = f
	rep, err := exp.ProfileRun(c.platform, c.workloads, c.opts)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return rep, err
}

// runDaemon captures the simulated run's analyzer input, streams it
// through a session on the daemon and prints the daemon's report.
func runDaemon(c *config, stdout, stderr io.Writer) error {
	start := time.Now()
	cp, err := exp.CaptureRun(c.platform, c.workloads, c.opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "profiler: captured %d events in %d packs (pack v%d) in %.2fs\n",
		cp.Events, len(cp.Packs), cp.PackVersion, time.Since(start).Seconds())
	cl, err := client.Dial(c.daemon, c.opts.PackVersion)
	if err != nil {
		return err
	}
	defer cl.Shutdown()
	rep, err := cp.Replay(cl, c.diffEvery)
	if err != nil {
		return err
	}
	io.WriteString(stdout, rep.Rendered)
	fmt.Fprintf(stderr, "profiler: session %d: %d events analysed, %d packs, %d shed (max admission level %d)\n",
		rep.Session, rep.Events, rep.Packs, rep.Shed, rep.MaxLevel)
	if rep.Windows > 0 {
		fmt.Fprintf(stderr, "profiler: session %d: %d analysis windows sealed, %d late events\n",
			rep.Session, rep.Windows, rep.LateEvents)
	}
	return nil
}

// writeFigures runs the figure table entry called name, or every entry
// for "all", and writes its files at their paths.
func writeFigures(name string) error {
	var names []string
	ran := false
	for _, fig := range exp.Figures() {
		names = append(names, fig.Name)
		if name != "all" && name != fig.Name {
			continue
		}
		ran = true
		files, err := fig.Run(0)
		if err != nil {
			return fmt.Errorf("figure %s: %w", fig.Name, err)
		}
		if err := writeFiles(files); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "figure %s: %d files written\n", fig.Name, len(files))
	}
	if !ran {
		return fmt.Errorf("unknown figure %q (have %s or all)", name, strings.Join(names, ", "))
	}
	return nil
}

// writeFiles writes each file at its path, creating directories as needed.
func writeFiles(files map[string][]byte) error {
	for path, data := range files {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
