package exp

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/exp/runner"
	"repro/internal/nas"
	"repro/internal/trace"
)

// Figure is one entry of the paper's figure table: a configuration, the
// paths under results/ it owns and the run that produces their bytes.
type Figure struct {
	// Name selects the entry (profiler -fig Name).
	Name string
	// Paths are the files the entry owns, relative to the module root. A
	// path ending in "/" is a directory whose every file the entry owns.
	Paths []string
	// Run simulates the entry on j parallel workers (0 = all cores) and
	// returns every file it owns, keyed by path. The bytes do not depend
	// on j.
	Run func(j int) (map[string][]byte, error)
}

// Figures is the paper's figure table, in the order of its evaluation
// section with the extensions last: analyzer faults, the reduction tree
// and adaptive overload control. Each entry reproduces the committed file
// of the same path; the root package's TestResultsCurrent holds them to it.
func Figures() []Figure {
	return []Figure{
		tableFigure("14", "results/fig14.txt", streamSweep{
			platform:  Tera100(),
			writers:   []int{80, 320, 1280, 2560},
			ratios:    []int{1, 2, 4, 8, 16, 25, 32, 64},
			perWriter: 32 << 20,
			block:     StreamBlockSize,
		}.write),
		tableFigure("15", "results/fig15.txt", overheadSweep{
			platform: Tera100(),
			cases:    Fig15Cases(),
			procs:    []int{64, 144, 256, 484, 900},
			iters:    12,
			ratio:    1,
			repeats:  3,
		}.write),
		tableFigure("16", "results/fig16.txt", toolSweep{
			platform: Curie(),
			procs:    []int{256, 1024, 2025, 4096},
			iters:    8,
		}.write),
		profileFigure{
			app:   app{"CG", nas.ClassD, 128},
			iters: 6,
			text:  "results/fig17_cg.txt",
			dir:   "results/cg128",
			latex: "results/cg128.tex",
		}.figure("17cg"),
		profileFigure{
			app:   app{"EulerMHD", nas.ClassC, 2025},
			iters: 3,
			text:  "results/fig17_euler.txt",
		}.figure("17euler"),
		profileFigure{
			app:   app{"LU", nas.ClassD, 1024},
			iters: 4,
			opts:  ProfileOptions{WaitState: true},
			text:  "results/fig18_lu.txt",
			dir:   "results/lu1024",
		}.figure("18lu"),
		profileFigure{
			app:   app{"BT", nas.ClassD, 900},
			iters: 4,
			opts:  ProfileOptions{Callsites: true, TemporalWindowNs: (100 * time.Millisecond).Nanoseconds()},
			text:  "results/fig18_bt.txt",
			dir:   "results/bt900",
		}.figure("18bt"),
		tableFigure("fault", "results/fault.txt", faultSweep{
			platform: Tera100(),
			app:      app{"SP", nas.ClassD, 256},
			iters:    12,
			ratio:    8,
			failAt:   []float64{0.25, 0.5, 0.75},
			kill:     1,
			deadline: DefaultWriteDeadline,
		}.write),
		tableFigure("tree", "results/tree.txt", treeSweep{
			platform: Tera100(),
			apps: []app{
				{"LU", nas.ClassA, 64}, {"CG", nas.ClassA, 64}, {"BT", nas.ClassA, 64},
				{"LU", nas.ClassA, 256}, {"CG", nas.ClassA, 256}, {"BT", nas.ClassA, 256},
				{"LU", nas.ClassA, 1024},
			},
			iters:  10,
			levels: []int{2, 3},
			fanin:  8,
			flush:  4,
			format: trace.PackV3,
		}.write),
		tableFigure("overload", "results/overload.txt", overloadSweep{
			platform: Tera100(),
			app:      app{"LU", nas.ClassA, 16},
			iters:    40,
			rate:     200 << 10,
			base: ProfileOptions{
				Workers:          2,
				PackBytes:        8192,
				TelemetryPeriod:  50 * time.Millisecond,
				BacklogHighBytes: 64 << 10,
			},
		}.write),
	}
}

// tableFigure is an entry whose one file is a table written by write.
func tableFigure(name, path string, write func(w io.Writer, j int) error) Figure {
	return Figure{Name: name, Paths: []string{path}, Run: func(j int) (map[string][]byte, error) {
		var b bytes.Buffer
		if err := write(&b, j); err != nil {
			return nil, err
		}
		return map[string][]byte{path: b.Bytes()}, nil
	}}
}

// app is one application: a NAS benchmark or EulerMHD at a class and a
// requested process count, snapped to what the benchmark accepts.
type app struct {
	kind  string
	class nas.Class
	procs int
}

func (a app) workload(iters int) (*nas.Workload, error) {
	return nas.ByName(a.kind, a.class, nas.ValidProcs(a.kind, a.procs), iters)
}

// Workloads resolves an -apps value (NAME.CLASS@PROCS[,...]) into
// workloads of iters timesteps each (0 = official counts).
func Workloads(apps string, iters int) ([]*nas.Workload, error) {
	specs, err := cliutil.ParseApps(apps)
	if err != nil {
		return nil, err
	}
	out := make([]*nas.Workload, 0, len(specs))
	for _, s := range specs {
		w, err := app{s.Kind, nas.Class(s.Class), s.Procs}.workload(iters)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// streamSweep is Figure 14: global VMPI stream throughput between a writer
// and a reader partition over writer counts and writer/reader ratios, with
// the prorated filesystem bandwidth as the comparison column, then the
// best 1:1 point against it. The paper's headline point is 2560 writers at
// ratio 1 moving 1 GiB each in 1 MiB blocks.
type streamSweep struct {
	platform         Platform
	writers, ratios  []int
	perWriter, block int64
}

// write is Figure 14's table. It refuses points that contradict the
// paper's reading of the figure (EXPERIMENTS.md): at 2 560 writers the
// streams beat the prorated filesystem share at ratio 25 (10.11 > 9.14
// GB/s) and lose to it at ratio 32.
func (s streamSweep) write(w io.Writer, j int) error {
	points, err := StreamSweepJ(s.platform, s.writers, s.ratios, s.perWriter, s.block, j)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		ratio int
		beats bool
	}{{25, true}, {32, false}} {
		i := slices.IndexFunc(points, func(p StreamPoint) bool { return p.Writers == 2560 && p.Ratio == c.ratio })
		if i < 0 {
			return fmt.Errorf("exp: figure 14 has no point at 2560 writers, ratio %d", c.ratio)
		}
		if p := points[i]; (p.Throughput > p.FSShare) != c.beats {
			return fmt.Errorf("exp: figure 14 contradicts the paper at 2560 writers, ratio %d: streams %.2f GB/s, prorated FS %.2f GB/s",
				c.ratio, p.Throughput/1e9, p.FSShare/1e9)
		}
	}
	WriteStreamTable(w, points)
	var best StreamPoint
	for _, pt := range points {
		if pt.Ratio == 1 && pt.Throughput > best.Throughput {
			best = pt
		}
	}
	if best.Writers > 0 {
		fmt.Fprintf(w, "\nbest 1:1 point: %d writers + %d readers -> %.1f GB/s (prorated FS: %.1f GB/s)\n",
			best.Writers, best.Readers, best.Throughput/1e9, best.FSShare/1e9)
	}
	return nil
}

// overheadSweep is Figure 15: the relative instrumentation overhead of the
// online coupling, with each run's instrumentation bandwidth Bi, for the
// paper's benchmark series over process counts, averaged over noise-seed
// passes. The paper's sweep runs 64 to 1156 processes at the official
// NAS iteration counts (iters 0); the reduced count keeps the overhead
// ratios (DESIGN.md).
type overheadSweep struct {
	platform              Platform
	cases                 []Fig15Case
	procs                 []int
	iters, ratio, repeats int
}

// write is Figure 15's table. It refuses points that contradict the
// paper's reading of the figure (EXPERIMENTS.md): every overhead is below
// 25 % (at most 17.14 %, CG.C@512), and a class D run, longer for the same
// traffic, pays less than its class C twin at the same process count (the
// closest pair: SP.D@144 −0.35 % against SP.C@144 −0.04 %).
func (s overheadSweep) write(w io.Writer, j int) error {
	grid := Fig15Grid(s.cases, s.procs, s.iters)
	points, err := runner.Run(len(grid), j, func(i int) (OverheadPoint, error) {
		return MeasureOverheadAvg(s.platform, grid[i], ToolOnline, s.ratio, s.repeats, trace.PackV1)
	})
	if err != nil {
		return err
	}
	for _, p := range points {
		if p.OverheadPct >= 25 {
			return fmt.Errorf("exp: figure 15 contradicts the paper at %s@%d: overhead %.2f %% is not below 25 %%", p.Bench, p.Procs, p.OverheadPct)
		}
		app, class, _ := strings.Cut(p.Bench, ".")
		i := slices.IndexFunc(points, func(c OverheadPoint) bool { return c.Bench == app+".C" && c.Procs == p.Procs })
		if class == "D" && i >= 0 && p.OverheadPct >= points[i].OverheadPct {
			return fmt.Errorf("exp: figure 15 contradicts the paper at %s@%d: overhead %.2f %% is not below class C's %.2f %%",
				p.Bench, p.Procs, p.OverheadPct, points[i].OverheadPct)
		}
	}
	WriteOverheadTable(w, fmt.Sprintf("Figure 15: online-coupling overhead at ratio 1:%d on %s (%d passes averaged)",
		s.ratio, s.platform.Name, s.repeats), points)
	return nil
}

// toolSweep is Figure 16: SP class D under the five tool configurations
// (Reference, Scalasca, Score-P profile, Score-P trace through SIONlib and
// the online coupling) over process counts, then each tool's measurement
// data volume at the smallest and largest count; the paper quotes Score-P
// traces growing 313 MB → 116 GB and the online coupling 923.93 MB →
// 333.22 GB. Its sweep runs the official SP.D count (iters 0). write
// refuses points where, from 1 024 processes on, the online coupling does
// not cost less than a Score-P trace (closest: −0.38 % vs 0.66 % at 1024).
type toolSweep struct {
	platform Platform
	procs    []int
	iters    int
}

func (s toolSweep) write(w io.Writer, j int) error {
	points, err := Fig16SweepJ(s.platform, s.procs, s.iters, j, trace.PackV1)
	if err != nil {
		return err
	}
	for _, p := range points {
		i := slices.IndexFunc(points, func(c OverheadPoint) bool { return c.Tool == ToolScorePTrace && c.Procs == p.Procs })
		if p.Tool == ToolOnline && p.Procs >= 1024 && i >= 0 && p.OverheadPct >= points[i].OverheadPct {
			return fmt.Errorf("exp: figure 16 contradicts the paper at %d procs: online coupling overhead %.2f %% is not below Score-P trace's %.2f %%",
				p.Procs, p.OverheadPct, points[i].OverheadPct)
		}
	}
	WriteOverheadTable(w, fmt.Sprintf("Figure 16: SP.D tool comparison on %s", s.platform.Name), points)
	fmt.Fprintln(w, "\n# measurement data volume by tool")
	byTool := map[Tool][]OverheadPoint{}
	for _, pt := range points {
		byTool[pt.Tool] = append(byTool[pt.Tool], pt)
	}
	for _, tool := range Tools() {
		pts := byTool[tool]
		if len(pts) == 0 || tool == ToolReference {
			continue
		}
		first, last := pts[0], pts[len(pts)-1]
		fmt.Fprintf(w, "%-28s %8d procs: %10.2f MB -> %8d procs: %10.2f GB\n",
			tool, first.Procs, float64(first.DataBytes)/(1<<20),
			last.Procs, float64(last.DataBytes)/(1<<30))
	}
	return nil
}

// faultSweep is the fault extension: kill analyzers of the online
// coupling at fractions of the healthy run time and report how the
// application degrades — overhead against the fault-free coupling, the
// stream failover, quarantine and drop counters, the ranks that fell back
// to a local profile and the share of measurement data that still reached
// an analyzer. The paper's back-pressure turns a dead analyzer into a
// hang; this exercises the degraded modes (write deadline, endpoint
// failover, local-profile fallback) that keep the application running.
type faultSweep struct {
	platform           Platform
	app                app
	iters, ratio, kill int
	failAt             []float64
	deadline           time.Duration
}

func (s faultSweep) write(w io.Writer, j int) error {
	wl, err := s.app.workload(s.iters)
	if err != nil {
		return err
	}
	points, err := FaultSweepJ(s.platform, wl, s.ratio, s.failAt, s.kill, s.deadline, j)
	if err != nil {
		return err
	}
	WriteFaultTable(w, fmt.Sprintf("analyzer-failure sweep: %s procs=%d ratio=1:%d analyzers=%d kill=%d deadline=%s on %s",
		wl.Name, wl.Procs, s.ratio, Readers(wl.Procs, s.ratio), s.kill,
		s.deadline.Round(time.Millisecond), s.platform.Name), points)
	return nil
}

// treeSweep is the reduction-tree extension (DESIGN.md §10): each
// application profiled flat and through each tree depth at equal event
// volume, one table per application, comparing every topology's
// root-blackboard ingest and report with the flat run's. All analysis
// modules are on, so the partials carry their full table set. j is the
// blackboard's worker count.
type treeSweep struct {
	platform                    Platform
	apps                        []app
	levels                      []int
	iters, fanin, flush, format int
}

func (s treeSweep) write(w io.Writer, j int) error {
	var configs []TreeConfig
	for _, l := range s.levels {
		configs = append(configs, TreeConfig{Levels: l, Fanin: s.fanin, FlushPacks: s.flush})
	}
	base := ProfileOptions{
		Workers:          j,
		WaitState:        true,
		TemporalWindowNs: (10 * time.Millisecond).Nanoseconds(),
		Callsites:        true,
		Sizes:            true,
		PackVersion:      s.format,
	}
	for i, a := range s.apps {
		wl, err := a.workload(s.iters)
		if err != nil {
			return err
		}
		points, err := TreeScalingSweep(s.platform, []*nas.Workload{wl}, base, configs)
		if err != nil {
			return err
		}
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "reduction-tree sweep: %s procs=%d iters=%d fan-in=%d flush=%d pack=v%d on %s\n",
			wl.Name, wl.Procs, s.iters, s.fanin, s.flush, s.format, s.platform.Name)
		WriteTreeTable(w, points)
	}
	return nil
}

// overloadSweep is the adaptive-overload extension (DESIGN.md §12): one
// application profiled unloaded, then with the analyzer partition
// throttled to rate bytes/second, once static (back-pressure only) and
// once adaptive (the controller sheds load under a quantified completeness
// bound), then the adaptive run's loss per rank. base fixes the blackboard
// worker count, so j does not enter. write refuses a table where the
// throttle stalls the static run by no more than 2x or the adaptive run's
// overhead exceeds 1.25x, the claim EXPERIMENTS.md checks it against.
type overloadSweep struct {
	platform Platform
	app      app
	iters    int
	rate     float64
	base     ProfileOptions
}

func (s overloadSweep) write(w io.Writer, _ int) error {
	wl, err := s.app.workload(s.iters)
	if err != nil {
		return err
	}
	points, err := OverloadSweep(s.platform, []*nas.Workload{wl}, s.base, s.rate)
	if err != nil {
		return err
	}
	for _, p := range points {
		if p.Mode == "static" && p.OverheadX <= 2 || p.Mode == "adaptive" && p.OverheadX > 1.25 {
			return fmt.Errorf("exp: the overload extension contradicts its claim: %s overhead %.2fx, want static above 2x and adaptive at or below 1.25x",
				p.Mode, p.OverheadX)
		}
	}
	WriteOverloadTable(w, points)
	if rep := points[len(points)-1].Report; len(rep.StreamLoss) > 0 {
		fmt.Fprintln(w)
		for _, row := range rep.StreamLoss {
			fmt.Fprintf(w, "%s rank %d: %d blocks dropped, %d lost in flight, %d events shed\n",
				row.App, row.Rank, row.Dropped, row.LostInFlight, row.Shed)
		}
	}
	return nil
}

// profileFigure is one of Figures 17 and 18: one application profiled on
// Tera100 through the full pipeline, with the text report at text, and
// when set the per-application artifacts under dir and the report as
// LaTeX at latex. j is the blackboard's worker count.
type profileFigure struct {
	app              app
	iters            int
	opts             ProfileOptions
	text, dir, latex string
}

func (f profileFigure) figure(name string) Figure {
	paths := []string{f.text}
	if f.latex != "" {
		paths = append(paths, f.latex)
	}
	if f.dir != "" {
		paths = append(paths, f.dir+"/")
	}
	return Figure{Name: name, Paths: paths, Run: f.run}
}

func (f profileFigure) run(j int) (map[string][]byte, error) {
	wl, err := f.app.workload(f.iters)
	if err != nil {
		return nil, err
	}
	opts := f.opts
	opts.Workers = j
	rep, err := ProfileRun(Tera100(), []*nas.Workload{wl}, opts)
	if err != nil {
		return nil, err
	}
	var text, latex bytes.Buffer
	if err := rep.Render(&text); err != nil {
		return nil, err
	}
	files := map[string][]byte{f.text: text.Bytes()}
	if f.latex != "" {
		if err := rep.RenderLaTeX(&latex); err != nil {
			return nil, err
		}
		files[f.latex] = latex.Bytes()
	}
	if f.dir != "" {
		for name, data := range rep.Artifacts() {
			files[f.dir+"/"+name] = data
		}
	}
	return files, nil
}
