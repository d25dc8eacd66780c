// Package report renders analysis results into the profiling report the
// paper's tool emits: one chapter per instrumented application with the
// MPI call profile, the point-to-point topology (matrix, graph) and the
// density maps (paper §IV-D; the original produces a LaTeX document of 20
// to 70 pages and invokes Graphviz — we emit text, CSV, DOT and PGM, which
// carry the same analysis content).
package report

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// ramp is the ASCII intensity ramp for heat maps, dark to bright.
const ramp = " .:-=+*#%@"

func rampChar(v, lo, hi float64) byte {
	if hi <= lo {
		if v > 0 {
			return ramp[len(ramp)-1]
		}
		return ramp[0]
	}
	f := (v - lo) / (hi - lo)
	i := int(f * float64(len(ramp)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(ramp) {
		i = len(ramp) - 1
	}
	return ramp[i]
}

// HumanBytes formats a byte count with binary units.
func HumanBytes(b float64) string {
	units := []string{"B", "KB", "MB", "GB", "TB"}
	i := 0
	for b >= 1024 && i < len(units)-1 {
		b /= 1024
		i++
	}
	if i == 0 {
		return fmt.Sprintf("%.0f %s", b, units[i])
	}
	return fmt.Sprintf("%.2f %s", b, units[i])
}

// topology is the renderers' one read of a TopologyModule: the written
// cells, ascending by (src, dst), and what every renderer derives from
// them. A query costs O(written cells + ranks); only the CSV and the JSON
// byte matrix, dense by definition, cost ranks².
type topology struct {
	n      int
	edges  []analysis.Edge
	degree []int // per rank: the distinct peers it sent to
	bytes  int64 // summed over every cell
}

func readTopology(m *analysis.TopologyModule) *topology {
	t := &topology{n: m.Ranks(), edges: m.AppendEdges(nil)}
	t.degree = make([]int, t.n)
	for _, e := range t.edges {
		t.degree[e.Src]++
		t.bytes += e.Bytes
	}
	return t
}

// degreeHistogram calls fn, ascending by degree, with every degree some
// rank has and the number of ranks that have it.
func (t *topology) degreeHistogram(fn func(degree, ranks int)) {
	hist := make([]int, t.n+1)
	for _, d := range t.degree {
		hist[d]++
	}
	for d, ranks := range hist {
		if ranks > 0 {
			fn(d, ranks)
		}
	}
}

// heatmap renders the matrix weighted by w as an ASCII heat map,
// max-pooled to at most maxCells×maxCells character cells (the paper's
// Figure 17a for CG.D/128 renders every cell). The pool is seeded with 0,
// which an unwritten cell weighs under every metric, so reading only the
// written cells is exact: a pooled cell is above 0 only where an edge put
// it there, the scale runs from 0 (from the least pooled cell when every
// one is above 0) to the largest, and every other character is the
// ramp's for 0.
func (t *topology) heatmap(w analysis.Metric, maxCells int) string {
	if maxCells <= 0 {
		maxCells = 64
	}
	cells := min(t.n, maxCells)
	cellOf := make([]int, t.n)
	for r := range cellOf {
		cellOf[r] = r * cells / t.n
	}
	grid := make([]float64, cells*cells)
	lo, hi, lit := 0.0, 0.0, 0
	for _, e := range t.edges {
		g := &grid[cellOf[e.Src]*cells+cellOf[e.Dst]]
		if v := e.Value(w); v > *g {
			if *g == 0 {
				lit++
			}
			*g, hi = v, max(hi, v)
		}
	}
	if lit > 0 && lit == len(grid) {
		lo = slices.Min(grid)
	}
	b := fmt.Appendf(make([]byte, 0, 64+cells*(cells+1)),
		"p2p matrix (%s), %d ranks, cell=max-pooled %dx%d\n", w, t.n, cells, cells)
	head, zero := len(b), rampChar(0, lo, hi)
	for range cells {
		for range cells {
			b = append(b, zero)
		}
		b = append(b, '\n')
	}
	for _, e := range t.edges {
		r, c := cellOf[e.Src], cellOf[e.Dst]
		if v := grid[r*cells+c]; v != 0 {
			b[head+r*(cells+1)+c] = rampChar(v, lo, hi)
		}
	}
	return string(b)
}

// csv renders the matrix weighted by w as CSV, one row per source rank;
// a value prints as %g would.
func (t *topology) csv(w analysis.Metric) []byte {
	b := make([]byte, 0, 2*t.n*t.n+16*len(t.edges))
	edges := t.edges
	for s := 0; s < t.n; s++ {
		for d := 0; d < t.n; d++ {
			if d > 0 {
				b = append(b, ',')
			}
			if len(edges) > 0 && edges[0].Src == s && edges[0].Dst == d {
				b = strconv.AppendFloat(b, edges[0].Value(w), 'g', -1, 64)
				edges = edges[1:]
			} else {
				b = append(b, '0')
			}
		}
		b = append(b, '\n')
	}
	return b
}

// dot renders the communication graph in Graphviz format, edges weighted
// by w (penwidth scaled to the weight, like the paper's topology figures).
func (t *topology) dot(name string, w analysis.Metric) []byte {
	b := fmt.Appendf(nil, "digraph %q {\n  node [shape=circle, fontsize=8];\n", name)
	var top float64
	for _, e := range t.edges {
		top = max(top, e.Value(w))
	}
	for _, e := range t.edges {
		v, pw := e.Value(w), 0.5
		if top > 0 {
			pw = 0.5 + 4.5*v/top
		}
		b = fmt.Appendf(b, "  %d -> %d [penwidth=%.2f, label=\"%g\"];\n", e.Src, e.Dst, pw, v)
	}
	return append(b, "}\n"...)
}

// GridShape picks a near-square (cols, rows) layout for n ranks, matching
// how the paper lays density maps out as 2-D images of the rank space.
func GridShape(n int) (cols, rows int) {
	if n <= 0 {
		return 0, 0
	}
	cols = int(math.Ceil(math.Sqrt(float64(n))))
	rows = (n + cols - 1) / cols
	return cols, rows
}

// DensityStats summarizes a density map.
type DensityStats struct {
	// Min and Max are the extreme per-rank values (the paper annotates its
	// color scales with them, e.g. "blue at 660.93 MB, red at 664.87 MB").
	Min, Max float64
	// Mean is the average value.
	Mean float64
	// Imbalance is Max/Mean (1.0 = perfectly balanced); 0 when Mean is 0.
	Imbalance float64
}

// Stats computes a density map's summary.
func Stats(values []float64) DensityStats {
	if len(values) == 0 {
		return DensityStats{}
	}
	st := DensityStats{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range values {
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		sum += v
	}
	st.Mean = sum / float64(len(values))
	if st.Mean != 0 {
		st.Imbalance = st.Max / st.Mean
	}
	return st
}

// DensityASCII renders per-rank values as an ASCII heat grid in rank
// row-major order, downsampled to at most maxCols columns.
func DensityASCII(values []float64, maxCols int) string {
	n := len(values)
	if n == 0 {
		return "(empty)\n"
	}
	if maxCols <= 0 {
		maxCols = 64
	}
	cols, rows := GridShape(n)
	st := Stats(values)
	var sb strings.Builder
	fmt.Fprintf(&sb, "density %dx%d  min=%g max=%g mean=%.4g imbalance=%.3f\n",
		cols, rows, st.Min, st.Max, st.Mean, st.Imbalance)
	// Downsample columns if needed (max pooling per character cell).
	step := 1
	if cols > maxCols {
		step = (cols + maxCols - 1) / maxCols
	}
	for r := 0; r < rows; r += step {
		for c := 0; c < cols; c += step {
			v := math.Inf(-1)
			for rr := r; rr < r+step && rr < rows; rr++ {
				for cc := c; cc < c+step && cc < cols; cc++ {
					if i := rr*cols + cc; i < n && values[i] > v {
						v = values[i]
					}
				}
			}
			if math.IsInf(v, -1) {
				sb.WriteByte(' ')
			} else {
				sb.WriteByte(rampChar(v, st.Min, st.Max))
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Sparkline renders a time series as a one-line ASCII intensity strip,
// max-pooled to at most maxCols characters — the report's temporal maps.
func Sparkline(values []float64, maxCols int) string {
	if len(values) == 0 {
		return "(empty)"
	}
	if maxCols <= 0 {
		maxCols = 64
	}
	cols := len(values)
	if cols > maxCols {
		cols = maxCols
	}
	pooled := make([]float64, cols)
	for i, v := range values {
		c := i * cols / len(values)
		if v > pooled[c] {
			pooled[c] = v
		}
	}
	st := Stats(pooled)
	out := make([]byte, cols)
	for i, v := range pooled {
		out[i] = rampChar(v, st.Min, st.Max)
	}
	return string(out)
}

// DensityPGM renders per-rank values as a portable graymap (P2) image, one
// pixel per rank in the same layout as DensityASCII.
func DensityPGM(values []float64) []byte {
	cols, rows := GridShape(len(values))
	st := Stats(values)
	var sb strings.Builder
	fmt.Fprintf(&sb, "P2\n%d %d\n255\n", cols, rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			v := 0
			if i < len(values) && st.Max > st.Min {
				v = int(255 * (values[i] - st.Min) / (st.Max - st.Min))
			} else if i < len(values) && values[i] > 0 {
				v = 255
			}
			if c > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", v)
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// Chapter is one application's section of the profiling report.
type Chapter struct {
	// App is the application (partition) name.
	App string
	// Procs is the application's rank count.
	Procs int
	// WallTime is the application's Init..Finalize wall time.
	WallTime time.Duration
	// Profiler, Topology and Density are the application's analysis
	// results.
	Profiler *analysis.ProfilerModule
	Topology *analysis.TopologyModule
	Density  *analysis.DensityModule
	// WaitState, when non-nil, adds the late-sender wait-state analysis
	// (the paper's §IV-D work-in-progress module).
	WaitState *analysis.WaitStateModule
	// Temporal, when non-nil, adds the temporal maps (activity over
	// virtual time, §IV-D).
	Temporal *analysis.TemporalModule
	// Callsites, when non-nil, adds the per-call-site breakdown built
	// from the events' context ids.
	Callsites *analysis.CallsiteModule
	// Sizes, when non-nil, adds the message-size distribution.
	Sizes *analysis.SizesModule
	// Completeness, when non-nil and non-empty, adds the measurement
	// completeness section: per-class shed counts and the loss bound
	// shed/(shed+analyzed) from the adaptive engine's admission gates.
	Completeness *analysis.CompletenessModule
	// Windows, when non-nil and non-empty, adds the time-resolved window
	// series: per-window sparklines over the virtual-time axis.
	Windows *analysis.WindowedModule
	// WindowLag, when non-nil, adds the event-to-report latency and
	// per-window completeness rows beneath the window series.
	WindowLag *analysis.WindowTracker
}

// StreamLossRow is one instrumented stream's loss accounting, surfaced
// in the engine-health chapter: blocks dropped by the writer's degraded
// mode, blocks written off when the reader quarantined an endpoint, and
// events shed by the admission gate before they reached the stream.
type StreamLossRow struct {
	App          string
	Rank         int
	Dropped      int64
	LostInFlight int64
	Shed         int64
}

func (r StreamLossRow) zero() bool {
	return r.Dropped == 0 && r.LostInFlight == 0 && r.Shed == 0
}

// Report is a full multi-application profiling report ("structured with
// one chapter per instrumented application").
type Report struct {
	// Title heads the report.
	Title string
	// Chapters holds one entry per application.
	Chapters []*Chapter
	// EngineHealth, when non-nil, adds the engine-health chapter: the
	// coupling stack's self-telemetry accumulated from meta-events streamed
	// over the engine's own VMPI channel.
	EngineHealth *analysis.EngineHealthKS
	// StreamLoss, when any row is nonzero, adds the per-stream loss table
	// to the engine-health chapter.
	StreamLoss []StreamLossRow
}

// Render writes the report as structured text.
func (r *Report) Render(w io.Writer) error {
	fmt.Fprintf(w, "==== %s ====\n", r.Title)
	fmt.Fprintf(w, "applications: %d\n", len(r.Chapters))
	for i, ch := range r.Chapters {
		fmt.Fprintf(w, "\n---- chapter %d: %s (%d processes, wall %.3fs) ----\n",
			i+1, ch.App, ch.Procs, ch.WallTime.Seconds())
		if err := ch.render(w); err != nil {
			return err
		}
	}
	if r.EngineHealth != nil {
		if err := renderEngineHealth(w, r.EngineHealth); err != nil {
			return err
		}
	}
	if err := renderStreamLoss(w, r.StreamLoss); err != nil {
		return err
	}
	return nil
}

// renderStreamLoss writes the per-stream loss table. Rows with no loss at
// all are elided; a run with nothing lost prints nothing, so reports from
// non-adaptive healthy runs are unchanged.
func renderStreamLoss(w io.Writer, rows []StreamLossRow) error {
	live := rows[:0:0]
	for _, r := range rows {
		if !r.zero() {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return nil
	}
	fmt.Fprintf(w, "\nPer-stream loss accounting:\n")
	fmt.Fprintf(w, "  %-16s %6s %14s %16s %14s\n",
		"app", "rank", "blocks dropped", "blocks lost", "events shed")
	for _, r := range live {
		fmt.Fprintf(w, "  %-16s %6d %14d %16d %14d\n",
			r.App, r.Rank, r.Dropped, r.LostInFlight, r.Shed)
	}
	return nil
}

// renderEngineHealth writes the engine-health chapter: one line per
// telemetry series with a sparkline over the snapshot sequence. All-zero
// series are elided — a healthy engine has no quarantines, and printing
// forty flat lines would bury the live ones.
func renderEngineHealth(w io.Writer, hk *analysis.EngineHealthKS) error {
	fmt.Fprintf(w, "\n---- engine health (%d snapshots) ----\n", hk.Snapshots())
	if hk.Snapshots() == 0 {
		fmt.Fprintln(w, "no telemetry snapshots received")
		return nil
	}
	fmt.Fprintf(w, "  %-32s %14s %14s  series\n", "metric", "last", "max")
	for _, name := range hk.Acc.Names() {
		pts := hk.Acc.Points(name)
		values := make([]float64, len(pts))
		for i, p := range pts {
			values[i] = p.Value
		}
		st := Stats(values)
		if st.Max == 0 && st.Min == 0 {
			continue
		}
		last := values[len(values)-1]
		fmt.Fprintf(w, "  %-32s %14.4g %14.4g  |%s|\n", name, last, st.Max, Sparkline(values, 40))
	}
	return nil
}

// profileRow is one call kind's line of the MPI profile.
type profileRow struct {
	kind trace.Kind
	st   analysis.Stat
}

// profileRows lists the chapter's MPI call kinds in the order every
// rendering prints them: by time, longest first, ties (typically
// zero-time calls) by kind so the table does not depend on the order
// events reached the profiler. Each kind's Stat is read once, so a fold
// running beside the render cannot reorder the rows in mid-sort.
func (ch *Chapter) profileRows() []profileRow {
	kinds := ch.Profiler.Kinds()
	rows := make([]profileRow, len(kinds))
	for i, k := range kinds {
		rows[i] = profileRow{k, ch.Profiler.Stat(k)}
	}
	slices.SortFunc(rows, func(a, b profileRow) int {
		return cmp.Or(cmp.Compare(b.st.TimeNs, a.st.TimeNs), cmp.Compare(a.kind, b.kind))
	})
	return rows
}

// Artifacts returns every chapter's per-application files, keyed by file
// name: the communication matrix as CSV (bytes and hits), the topology as
// a DOT graph and the density maps as PGM images.
func (r *Report) Artifacts() map[string][]byte {
	files := map[string][]byte{}
	for _, ch := range r.Chapters {
		base := strings.ReplaceAll(ch.App, ".", "_")
		topo := readTopology(ch.Topology)
		files[base+"_matrix_bytes.csv"] = topo.csv(analysis.MetricBytes)
		files[base+"_matrix_hits.csv"] = topo.csv(analysis.MetricHits)
		files[base+"_topology.dot"] = topo.dot(ch.App, analysis.MetricBytes)
		files[base+"_send_hits.pgm"] = DensityPGM(ch.Density.Map(trace.KindSend, analysis.MetricHits))
		files[base+"_p2p_size.pgm"] = DensityPGM(ch.Density.P2PSizeMap())
		files[base+"_wait_time.pgm"] = DensityPGM(ch.Density.WaitTimeMap())
		files[base+"_coll_time.pgm"] = DensityPGM(ch.Density.CollectiveTimeMap())
	}
	return files
}

func (ch *Chapter) render(w io.Writer) error {
	// MPI call profile.
	fmt.Fprintf(w, "\nMPI profile:\n")
	fmt.Fprintf(w, "  %-14s %12s %14s %14s\n", "call", "hits", "time", "total size")
	for _, row := range ch.profileRows() {
		fmt.Fprintf(w, "  %-14s %12d %14s %14s\n",
			row.kind, row.st.Hits, time.Duration(row.st.TimeNs), HumanBytes(float64(row.st.Bytes)))
	}

	// Topology.
	topo := readTopology(ch.Topology)
	fmt.Fprintf(w, "\nTopology (total size weighting):\n")
	io.WriteString(w, topo.heatmap(analysis.MetricBytes, 48))
	fmt.Fprintf(w, "degree histogram:")
	topo.degreeHistogram(func(d, ranks int) { fmt.Fprintf(w, " %d-neighbour:%d", d, ranks) })
	fmt.Fprintln(w)

	// Density maps.
	maps := []struct {
		name   string
		values []float64
	}{
		{"MPI_Send hits", ch.Density.Map(trace.KindSend, analysis.MetricHits)},
		{"p2p total size", ch.Density.P2PSizeMap()},
		{"wait time", ch.Density.WaitTimeMap()},
		{"collective time", ch.Density.CollectiveTimeMap()},
	}
	for _, m := range maps {
		st := Stats(m.values)
		if st.Max == 0 {
			continue
		}
		fmt.Fprintf(w, "\nDensity map: %s\n", m.name)
		io.WriteString(w, DensityASCII(m.values, 48))
	}

	// Message-size distribution (optional module).
	if ch.Sizes != nil {
		if hist := ch.Sizes.Histogram(); len(hist) > 0 {
			fmt.Fprintf(w, "\nMessage-size distribution (point-to-point):\n")
			fmt.Fprintf(w, "  %-22s %12s %14s\n", "size range", "messages", "bytes")
			var maxHits int64
			for _, b := range hist {
				if b.Hits > maxHits {
					maxHits = b.Hits
				}
			}
			for _, b := range hist {
				bar := strings.Repeat("#", int(40*b.Hits/maxHits))
				fmt.Fprintf(w, "  [%8s, %8s) %12d %14s %s\n",
					HumanBytes(float64(b.Lo)), HumanBytes(float64(b.Hi)), b.Hits,
					HumanBytes(float64(b.Bytes)), bar)
			}
			med := ch.Sizes.MedianBucket()
			fmt.Fprintf(w, "median message size bucket: [%s, %s)\n",
				HumanBytes(float64(med.Lo)), HumanBytes(float64(med.Hi)))
		}
	}

	// Call-site breakdown (optional module).
	if ch.Callsites != nil {
		rows := ch.Callsites.Top(10)
		if len(rows) > 0 {
			fmt.Fprintf(w, "\nTop call sites by time:\n")
			fmt.Fprintf(w, "  %-18s %-14s %10s %14s %14s\n", "site", "call", "hits", "time", "total size")
			for _, row := range rows {
				label := row.Label
				if label == "" {
					label = fmt.Sprintf("ctx:%d", row.Ctx)
				}
				fmt.Fprintf(w, "  %-18s %-14s %10d %14s %14s\n",
					label, row.Kind, row.Stat.Hits,
					time.Duration(row.Stat.TimeNs), HumanBytes(float64(row.Stat.Bytes)))
			}
		}
	}

	// Temporal maps (optional module).
	if ch.Temporal != nil && ch.Temporal.Buckets() > 0 {
		window := time.Duration(ch.Temporal.Window())
		fmt.Fprintf(w, "\nTemporal map: communication time per %v window\n", window)
		series := ch.Temporal.CommunicationTimeSeries()
		fmt.Fprintf(w, "|%s|\n", Sparkline(series, 72))
		st := Stats(series)
		fmt.Fprintf(w, "peak window: %v busy, mean %v\n", time.Duration(st.Max), time.Duration(st.Mean))
	}

	// Wait-state analysis (optional module).
	if ch.WaitState != nil {
		late := ch.WaitState.LateSenderMap()
		st := Stats(late)
		fmt.Fprintf(w, "\nWait-state analysis: %d send/recv pairs matched, total late-sender wait %s\n",
			ch.WaitState.Pairs(), time.Duration(ch.WaitState.TotalLateNs()))
		if st.Max > 0 {
			io.WriteString(w, DensityASCII(late, 48))
		}
	}

	// Time-resolved window series (optional module). Sparklines run over
	// the populated index range, gaps rendered as zero cells, so the
	// virtual-time axis is uniform whatever the event distribution.
	if ch.Windows != nil && ch.Windows.Len() > 0 {
		win := time.Duration(ch.Windows.Window())
		slide := time.Duration(ch.Windows.Slide())
		kind := "tumbling"
		if slide != win {
			kind = "sliding"
		}
		firstIdx, events := ch.Windows.Series(func(p *analysis.Partial) float64 {
			return float64(p.Profiler.Events())
		})
		fmt.Fprintf(w, "\nWindowed series: %d windows of %v (%s, slide %v), first index %d\n",
			ch.Windows.Len(), win, kind, slide, firstIdx)
		fmt.Fprintf(w, "  events/window     |%s|\n", Sparkline(events, 72))
		_, bytes := ch.Windows.Series(func(p *analysis.Partial) float64 {
			var b int64
			for _, k := range p.Profiler.Kinds() {
				b += p.Profiler.Stat(k).Bytes
			}
			return float64(b)
		})
		if st := Stats(bytes); st.Max > 0 {
			fmt.Fprintf(w, "  bytes/window      |%s|\n", Sparkline(bytes, 72))
		}
		_, waits := ch.Windows.Series(func(p *analysis.Partial) float64 {
			if p.Waits == nil {
				return 0
			}
			return float64(p.Waits.TotalLateNs())
		})
		if st := Stats(waits); st.Max > 0 {
			fmt.Fprintf(w, "  late-sender/window |%s|\n", Sparkline(waits, 72))
		}
		if tr := ch.WindowLag; tr != nil {
			fmt.Fprintf(w, "  event-to-report lag: last %v, max %v (%d events, %d late)\n",
				time.Duration(tr.LagNs()), time.Duration(tr.MaxLagNs()),
				tr.Events(), tr.LateEvents())
			if idx, c, ok := tr.WorstWindow(); ok {
				fmt.Fprintf(w, "  worst window completeness: >=%.2f%% (window %d)\n", 100*c, idx)
			}
		}
	}

	// Measurement completeness (adaptive engine only). Renders nothing
	// when no events were shed, so non-adaptive chapters are unchanged.
	if !ch.Completeness.Empty() {
		fmt.Fprintf(w, "\nMeasurement completeness (load shedding active):\n")
		fmt.Fprintf(w, "  %-14s %12s %12s %14s\n", "call", "analyzed", "shed", "completeness")
		var totalShed, totalAnalyzed int64
		for _, k := range ch.Completeness.Kinds() {
			st := ch.Completeness.Stat(k)
			analyzed := ch.Profiler.Stat(k).Hits
			totalShed += st.Shed
			totalAnalyzed += analyzed
			if st.Shed == 0 {
				continue
			}
			bound := ch.Completeness.Bound(k, analyzed)
			fmt.Fprintf(w, "  %-14s %12d %12d %13.2f%%\n", k, analyzed, st.Shed, 100*(1-bound))
		}
		overall := float64(totalShed) / float64(totalShed+totalAnalyzed)
		fmt.Fprintf(w, "advertised bound: >=%.2f%% of events analyzed (%d shed, %d analyzed)\n",
			100*(1-overall), totalShed, totalAnalyzed)
	}
	return nil
}
