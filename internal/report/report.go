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
	"sync"
	"time"
	"unicode/utf8"

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

// buf is a text buffer with the fmt verbs the reports use as append
// methods. A width pads as fmt does, counting runes (the 'µ' of a
// duration is one column): right-aligned, or left-aligned when negative.
type buf []byte

func (b buf) lit(s string) buf { return append(b, s...) }

func (b buf) str(s string, width int) buf { return append(b, s...).pad(len(b), width) }

func (b buf) num(v int64, width int) buf { return buf(strconv.AppendInt(b, v, 10)).pad(len(b), width) }

func (b buf) float(v float64, verb byte, prec, width int) buf {
	return buf(strconv.AppendFloat(b, v, verb, prec, 64)).pad(len(b), width)
}

// dur appends ns as time.Duration's String spells it. String is inlined
// and its result does not escape, so it formats on the stack.
func (b buf) dur(ns int64, width int) buf {
	return append(b, time.Duration(ns).String()...).pad(len(b), width)
}

var units = [...]string{"B", "KB", "MB", "GB", "TB"}

// size appends a byte count with binary units.
func (b buf) size(v float64, width int) buf {
	i, prec := 0, 0
	for ; v >= 1024 && i < len(units)-1; i, prec = i+1, 2 {
		v /= 1024
	}
	return buf(strconv.AppendFloat(b, v, 'f', prec, 64)).lit(" ").lit(units[i]).pad(len(b), width)
}

// pad aligns b[start:] in a field of width runes.
func (b buf) pad(start, width int) buf {
	n := max(width, -width) - utf8.RuneCount(b[start:])
	for range n {
		b = append(b, ' ')
	}
	if width > 0 && n > 0 {
		copy(b[start+n:], b[start:len(b)-n])
		for i := range n {
			b[start+i] = ' '
		}
	}
	return b
}

// topology is the renderers' one read of a TopologyModule: the written
// cells, ascending by (src, dst), and what every renderer derives from
// them. A query costs O(written cells + ranks); only the CSV and the JSON
// byte matrix, dense by definition, cost ranks². A read reuses the
// storage of the one before it.
type topology struct {
	n      int
	edges  []analysis.Edge
	degree []int // per rank: the distinct peers it sent to
	bytes  int64 // summed over every cell
	// The degree histogram's counts and the heat map's cells.
	hist   []int
	cellOf []int
	grid   []float64
}

func readTopology(m *analysis.TopologyModule) *topology { return new(topology).read(m) }

func (t *topology) read(m *analysis.TopologyModule) *topology {
	t.n, t.edges, t.bytes = m.Ranks(), m.AppendEdges(t.edges[:0]), 0
	t.degree = zeroed(t.degree, t.n)
	for _, e := range t.edges {
		t.degree[e.Src]++
		t.bytes += e.Bytes
	}
	return t
}

// zeroed returns s resized to n zeros, in its own storage when it fits.
func zeroed[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// degreeHistogram returns, indexed by degree, how many ranks have it.
func (t *topology) degreeHistogram() []int {
	t.hist = zeroed(t.hist, t.n+1)
	for _, d := range t.degree {
		t.hist[d]++
	}
	return t.hist
}

// heatmap appends the matrix weighted by w as an ASCII heat map,
// max-pooled to at most maxCells×maxCells character cells (the paper's
// Figure 17a for CG.D/128 renders every cell). The pool is seeded with 0,
// which an unwritten cell weighs under every metric, so reading only the
// written cells is exact: a pooled cell is above 0 only where an edge put
// it there, the scale runs from 0 (from the least pooled cell when every
// one is above 0) to the largest, and every other character is the
// ramp's for 0.
func (t *topology) heatmap(b buf, w analysis.Metric, maxCells int) buf {
	if maxCells <= 0 {
		maxCells = 64
	}
	cells := min(t.n, maxCells)
	t.cellOf = zeroed(t.cellOf, t.n)
	for r := range t.cellOf {
		t.cellOf[r] = r * cells / t.n
	}
	t.grid = zeroed(t.grid, cells*cells)
	grid, cellOf := t.grid, t.cellOf
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
	b = b.lit("p2p matrix (").lit(w.String()).lit("), ").num(int64(t.n), 0).
		lit(" ranks, cell=max-pooled ").num(int64(cells), 0).lit("x").num(int64(cells), 0).lit("\n")
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
	return b
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
	return string(buf(nil).density(values, maxCols))
}

func (b buf) density(values []float64, maxCols int) buf {
	n := len(values)
	if n == 0 {
		return b.lit("(empty)\n")
	}
	if maxCols <= 0 {
		maxCols = 64
	}
	cols, rows := GridShape(n)
	st := Stats(values)
	b = b.lit("density ").num(int64(cols), 0).lit("x").num(int64(rows), 0).
		lit("  min=").float(st.Min, 'g', -1, 0).lit(" max=").float(st.Max, 'g', -1, 0).
		lit(" mean=").float(st.Mean, 'g', 4, 0).lit(" imbalance=").float(st.Imbalance, 'f', 3, 0).lit("\n")
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
				b = append(b, ' ')
			} else {
				b = append(b, rampChar(v, st.Min, st.Max))
			}
		}
		b = append(b, '\n')
	}
	return b
}

// sparkline appends a time series as a one-line ASCII intensity strip,
// max-pooled to at most maxCols characters — the report's temporal maps.
// A character pools a run of values and 0, so the strip is two walks of
// the values, one for its scale and one for its characters.
func (b buf) sparkline(values []float64, maxCols int) buf {
	n := len(values)
	if n == 0 {
		return b.lit("(empty)")
	}
	if maxCols <= 0 {
		maxCols = 64
	}
	cols := min(n, maxCols)
	lo, hi := math.Inf(1), math.Inf(-1)
	for pass := range 2 {
		cell := 0.0
		for i, v := range values {
			if v > cell {
				cell = v
			}
			if (i+1)*cols/n == i*cols/n {
				continue // the cell pools the next value too
			}
			if pass == 0 {
				lo, hi = min(lo, cell), max(hi, cell)
			} else {
				b = append(b, rampChar(cell, lo, hi))
			}
			cell = 0
		}
	}
	return b
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

// scratch is one render's working storage, pooled so that a warm render
// allocates nothing: the text, and the module reads it is made from.
type scratch struct {
	text  buf
	topo  topology
	rows  []analysis.KindStat
	vals  []float64
	sites []analysis.CallsiteStat
	sizes []analysis.SizeBucket
	kinds []trace.Kind
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Render writes the report as structured text, in one Write, and returns
// the writer's error.
func (r *Report) Render(w io.Writer) error {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	b := s.text[:0].lit("==== ").lit(r.Title).lit(" ====\napplications: ").num(int64(len(r.Chapters)), 0).lit("\n")
	for i, ch := range r.Chapters {
		b = b.lit("\n---- chapter ").num(int64(i+1), 0).lit(": ").lit(ch.App).lit(" (").num(int64(ch.Procs), 0).
			lit(" processes, wall ").float(ch.WallTime.Seconds(), 'f', 3, 0).lit("s) ----\n")
		b = s.chapter(b, ch)
	}
	if r.EngineHealth != nil {
		b = s.engineHealth(b, r.EngineHealth)
	}
	s.text = streamLoss(b, r.StreamLoss)
	_, err := w.Write(s.text)
	return err
}

// streamLoss appends the per-stream loss table. Rows with no loss at all
// are elided; a run with nothing lost prints nothing, so reports from
// non-adaptive healthy runs are unchanged.
func streamLoss(b buf, rows []StreamLossRow) buf {
	head := true
	for _, r := range rows {
		if r.zero() {
			continue
		}
		if head {
			b = b.lit("\nPer-stream loss accounting:\n  ").str("app", -16).lit(" ").str("rank", 6).lit(" ").
				str("blocks dropped", 14).lit(" ").str("blocks lost", 16).lit(" ").str("events shed", 14).lit("\n")
			head = false
		}
		b = b.lit("  ").str(r.App, -16).lit(" ").num(int64(r.Rank), 6).lit(" ").num(r.Dropped, 14).lit(" ").
			num(r.LostInFlight, 16).lit(" ").num(r.Shed, 14).lit("\n")
	}
	return b
}

// engineHealth appends the engine-health chapter: one line per telemetry
// series with a sparkline over the snapshot sequence. All-zero series
// are elided — a healthy engine has no quarantines, and printing forty
// flat lines would bury the live ones.
func (s *scratch) engineHealth(b buf, hk *analysis.EngineHealthKS) buf {
	b = b.lit("\n---- engine health (").num(int64(hk.Snapshots()), 0).lit(" snapshots) ----\n")
	if hk.Snapshots() == 0 {
		return b.lit("no telemetry snapshots received\n")
	}
	b = b.lit("  ").str("metric", -32).lit(" ").str("last", 14).lit(" ").str("max", 14).lit("  series\n")
	for _, name := range hk.Acc.Names() {
		s.vals = s.vals[:0]
		for _, p := range hk.Acc.Points(name) {
			s.vals = append(s.vals, p.Value)
		}
		st := Stats(s.vals)
		if st.Max == 0 && st.Min == 0 {
			continue
		}
		b = b.lit("  ").str(name, -32).lit(" ").float(s.vals[len(s.vals)-1], 'g', 4, 14).lit(" ").
			float(st.Max, 'g', 4, 14).lit("  |").sparkline(s.vals, 40).lit("|\n")
	}
	return b
}

// profileRows appends a profiler's call kinds to dst in the order every
// rendering prints them: by time, longest first, ties (typically
// zero-time calls) by kind so the table does not depend on the order
// events reached the profiler. The rows are one locked read, so a fold
// running beside the render cannot reorder them in mid-sort.
func profileRows(dst []analysis.KindStat, m *analysis.ProfilerModule) []analysis.KindStat {
	dst = m.AppendStats(dst)
	slices.SortFunc(dst, func(a, b analysis.KindStat) int {
		return cmp.Or(cmp.Compare(b.TimeNs, a.TimeNs), cmp.Compare(a.Kind, b.Kind))
	})
	return dst
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
		files[base+"_send_hits.pgm"] = DensityPGM(ch.Density.AppendMap(nil, trace.KindSend, analysis.MetricHits))
		files[base+"_p2p_size.pgm"] = DensityPGM(ch.Density.AppendP2PSizeMap(nil))
		files[base+"_wait_time.pgm"] = DensityPGM(ch.Density.AppendWaitTimeMap(nil))
		files[base+"_coll_time.pgm"] = DensityPGM(ch.Density.AppendCollectiveTimeMap(nil))
	}
	return files
}

// densityMaps are the chapter's density maps, in the order it prints them.
var densityMaps = [...]struct {
	name string
	read func(*analysis.DensityModule, []float64) []float64
}{
	{"MPI_Send hits", func(d *analysis.DensityModule, dst []float64) []float64 {
		return d.AppendMap(dst, trace.KindSend, analysis.MetricHits)
	}},
	{"p2p total size", (*analysis.DensityModule).AppendP2PSizeMap},
	{"wait time", (*analysis.DensityModule).AppendWaitTimeMap},
	{"collective time", (*analysis.DensityModule).AppendCollectiveTimeMap},
}

// chapter appends one application's section.
func (s *scratch) chapter(b buf, ch *Chapter) buf {
	// MPI call profile.
	b = b.lit("\nMPI profile:\n  ").str("call", -14).lit(" ").str("hits", 12).lit(" ").str("time", 14).lit(" ").
		str("total size", 14).lit("\n")
	s.rows = profileRows(s.rows[:0], ch.Profiler)
	for _, row := range s.rows {
		b = b.lit("  ").str(row.Kind.String(), -14).lit(" ").num(row.Hits, 12).lit(" ").dur(row.TimeNs, 14).lit(" ").
			size(float64(row.Bytes), 14).lit("\n")
	}

	// Topology.
	topo := s.topo.read(ch.Topology)
	b = topo.heatmap(b.lit("\nTopology (total size weighting):\n"), analysis.MetricBytes, 48).lit("degree histogram:")
	for d, ranks := range topo.degreeHistogram() {
		if ranks > 0 {
			b = b.lit(" ").num(int64(d), 0).lit("-neighbour:").num(int64(ranks), 0)
		}
	}
	b = b.lit("\n")

	// Density maps.
	for _, m := range densityMaps {
		if s.vals = m.read(ch.Density, s.vals[:0]); Stats(s.vals).Max != 0 {
			b = b.lit("\nDensity map: ").lit(m.name).lit("\n").density(s.vals, 48)
		}
	}

	// Message-size distribution (optional module).
	if ch.Sizes != nil {
		if s.sizes = ch.Sizes.AppendHistogram(s.sizes[:0]); len(s.sizes) > 0 {
			b = b.lit("\nMessage-size distribution (point-to-point):\n  ").str("size range", -22).lit(" ").
				str("messages", 12).lit(" ").str("bytes", 14).lit("\n")
			var maxHits int64
			for _, sb := range s.sizes {
				maxHits = max(maxHits, sb.Hits)
			}
			for _, sb := range s.sizes {
				b = b.lit("  [").size(float64(sb.Lo), 8).lit(", ").size(float64(sb.Hi), 8).lit(") ").num(sb.Hits, 12).
					lit(" ").size(float64(sb.Bytes), 14).lit(" ")
				for range 40 * sb.Hits / maxHits {
					b = append(b, '#')
				}
				b = b.lit("\n")
			}
			med := ch.Sizes.MedianBucket()
			b = b.lit("median message size bucket: [").size(float64(med.Lo), 0).lit(", ").size(float64(med.Hi), 0).lit(")\n")
		}
	}

	// Call-site breakdown (optional module).
	if ch.Callsites != nil {
		if s.sites = ch.Callsites.AppendTop(s.sites[:0], 10); len(s.sites) > 0 {
			b = b.lit("\nTop call sites by time:\n  ").str("site", -18).lit(" ").str("call", -14).lit(" ").
				str("hits", 10).lit(" ").str("time", 14).lit(" ").str("total size", 14).lit("\n")
			for _, row := range s.sites {
				b = b.lit("  ")
				if start := len(b); row.Label != "" {
					b = b.str(row.Label, -18)
				} else {
					b = b.lit("ctx:").num(int64(row.Ctx), 0).pad(start, -18)
				}
				b = b.lit(" ").str(row.Kind.String(), -14).lit(" ").num(row.Stat.Hits, 10).lit(" ").
					dur(row.Stat.TimeNs, 14).lit(" ").size(float64(row.Stat.Bytes), 14).lit("\n")
			}
		}
	}

	// Temporal maps (optional module).
	if ch.Temporal != nil && ch.Temporal.Buckets() > 0 {
		b = b.lit("\nTemporal map: communication time per ").dur(ch.Temporal.Window(), 0).lit(" window\n")
		s.vals = ch.Temporal.AppendCommunicationTimeSeries(s.vals[:0])
		st := Stats(s.vals)
		b = b.lit("|").sparkline(s.vals, 72).lit("|\npeak window: ").dur(int64(st.Max), 0).lit(" busy, mean ").
			dur(int64(st.Mean), 0).lit("\n")
	}

	// Wait-state analysis (optional module).
	if ch.WaitState != nil {
		s.vals = ch.WaitState.AppendLateSenderMap(s.vals[:0])
		b = b.lit("\nWait-state analysis: ").num(ch.WaitState.Pairs(), 0).
			lit(" send/recv pairs matched, total late-sender wait ").dur(ch.WaitState.TotalLateNs(), 0).lit("\n")
		if Stats(s.vals).Max > 0 {
			b = b.density(s.vals, 48)
		}
	}

	// Time-resolved window series (optional module). Sparklines run over
	// the populated index range, gaps rendered as zero cells, so the
	// virtual-time axis is uniform whatever the event distribution.
	if ch.Windows != nil && ch.Windows.Len() > 0 {
		win, slide := ch.Windows.Window(), ch.Windows.Slide()
		kind := "tumbling"
		if slide != win {
			kind = "sliding"
		}
		firstIdx, events := ch.Windows.AppendSeries(s.vals[:0], func(p *analysis.Partial) float64 {
			return float64(p.Profiler.Events())
		})
		b = b.lit("\nWindowed series: ").num(int64(ch.Windows.Len()), 0).lit(" windows of ").dur(win, 0).lit(" (").
			lit(kind).lit(", slide ").dur(slide, 0).lit("), first index ").num(firstIdx, 0).lit("\n").
			lit("  events/window     |").sparkline(events, 72).lit("|\n")
		_, s.vals = ch.Windows.AppendSeries(events[:0], func(p *analysis.Partial) float64 {
			var bytes int64
			s.rows = p.Profiler.AppendStats(s.rows[:0])
			for _, row := range s.rows {
				bytes += row.Bytes
			}
			return float64(bytes)
		})
		if Stats(s.vals).Max > 0 {
			b = b.lit("  bytes/window      |").sparkline(s.vals, 72).lit("|\n")
		}
		_, s.vals = ch.Windows.AppendSeries(s.vals[:0], func(p *analysis.Partial) float64 {
			if p.Waits == nil {
				return 0
			}
			return float64(p.Waits.TotalLateNs())
		})
		if Stats(s.vals).Max > 0 {
			b = b.lit("  late-sender/window |").sparkline(s.vals, 72).lit("|\n")
		}
		if tr := ch.WindowLag; tr != nil {
			b = b.lit("  event-to-report lag: last ").dur(tr.LagNs(), 0).lit(", max ").dur(tr.MaxLagNs(), 0).
				lit(" (").num(tr.Events(), 0).lit(" events, ").num(tr.LateEvents(), 0).lit(" late)\n")
			if idx, c, ok := tr.WorstWindow(); ok {
				b = b.lit("  worst window completeness: >=").float(100*c, 'f', 2, 0).lit("% (window ").num(idx, 0).lit(")\n")
			}
		}
	}

	// Measurement completeness (adaptive engine only). Renders nothing
	// when no events were shed, so non-adaptive chapters are unchanged.
	if !ch.Completeness.Empty() {
		b = b.lit("\nMeasurement completeness (load shedding active):\n  ").str("call", -14).lit(" ").
			str("analyzed", 12).lit(" ").str("shed", 12).lit(" ").str("completeness", 14).lit("\n")
		var totalShed, totalAnalyzed int64
		s.kinds = ch.Completeness.AppendKinds(s.kinds[:0])
		for _, k := range s.kinds {
			st := ch.Completeness.Stat(k)
			analyzed := ch.Profiler.Stat(k).Hits
			totalShed += st.Shed
			totalAnalyzed += analyzed
			if st.Shed == 0 {
				continue
			}
			bound := ch.Completeness.Bound(k, analyzed)
			b = b.lit("  ").str(k.String(), -14).lit(" ").num(analyzed, 12).lit(" ").num(st.Shed, 12).lit(" ").
				float(100*(1-bound), 'f', 2, 13).lit("%\n")
		}
		overall := float64(totalShed) / float64(totalShed+totalAnalyzed)
		b = b.lit("advertised bound: >=").float(100*(1-overall), 'f', 2, 0).lit("% of events analyzed (").
			num(totalShed, 0).lit(" shed, ").num(totalAnalyzed, 0).lit(" analyzed)\n")
	}
	return b
}
