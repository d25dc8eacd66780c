package report

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// The fmt renderer: the text report as it was rendered before it became
// one append pass over pooled scratch, kept as the oracle that pass must
// match byte for byte (TestRenderMatchesOracle). Only its module reads
// changed, to the append forms the modules now offer; its formatting is
// the Fprintf calls it always made. rampChar, GridShape and Stats are
// shared: the rewrite left them as they were.

// oracleHumanBytes formats a byte count with binary units.
func oracleHumanBytes(b float64) string {
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
type oracleTopology struct {
	n      int
	edges  []analysis.Edge
	degree []int // per rank: the distinct peers it sent to
	bytes  int64 // summed over every cell
}

func oracleReadTopology(m *analysis.TopologyModule) *oracleTopology {
	t := &oracleTopology{n: m.Ranks(), edges: m.AppendEdges(nil)}
	t.degree = make([]int, t.n)
	for _, e := range t.edges {
		t.degree[e.Src]++
		t.bytes += e.Bytes
	}
	return t
}

// degreeHistogram calls fn, ascending by degree, with every degree some
// rank has and the number of ranks that have it.
func (t *oracleTopology) degreeHistogram(fn func(degree, ranks int)) {
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
func (t *oracleTopology) heatmap(w analysis.Metric, maxCells int) string {
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

// oracleDensityASCII renders per-rank values as an ASCII heat grid in rank
// row-major order, downsampled to at most maxCols columns.
func oracleDensityASCII(values []float64, maxCols int) string {
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

// oracleSparkline renders a time series as a one-line ASCII intensity strip,
// max-pooled to at most maxCols characters — the report's temporal maps.
func oracleSparkline(values []float64, maxCols int) string {
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

// oracleRender writes the report as structured text.
func oracleRender(r *Report, w io.Writer) error {
	fmt.Fprintf(w, "==== %s ====\n", r.Title)
	fmt.Fprintf(w, "applications: %d\n", len(r.Chapters))
	for i, ch := range r.Chapters {
		fmt.Fprintf(w, "\n---- chapter %d: %s (%d processes, wall %.3fs) ----\n",
			i+1, ch.App, ch.Procs, ch.WallTime.Seconds())
		if err := oracleChapterText(ch, w); err != nil {
			return err
		}
	}
	if r.EngineHealth != nil {
		if err := oracleEngineHealth(w, r.EngineHealth); err != nil {
			return err
		}
	}
	if err := oracleStreamLoss(w, r.StreamLoss); err != nil {
		return err
	}
	return nil
}

// oracleStreamLoss writes the per-stream loss table. Rows with no loss at
// all are elided; a run with nothing lost prints nothing, so reports from
// non-adaptive healthy runs are unchanged.
func oracleStreamLoss(w io.Writer, rows []StreamLossRow) error {
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

// oracleEngineHealth writes the engine-health chapter: one line per
// telemetry series with a sparkline over the snapshot sequence. All-zero
// series are elided — a healthy engine has no quarantines, and printing
// forty flat lines would bury the live ones.
func oracleEngineHealth(w io.Writer, hk *analysis.EngineHealthKS) error {
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
		fmt.Fprintf(w, "  %-32s %14.4g %14.4g  |%s|\n", name, last, st.Max, oracleSparkline(values, 40))
	}
	return nil
}

// oracleProfileRow is one call kind's line of the MPI profile.
type oracleProfileRow struct {
	kind trace.Kind
	st   analysis.Stat
}

// oracleProfileRows lists the chapter's MPI call kinds in the order every
// rendering prints them: by time, longest first, ties (typically
// zero-time calls) by kind so the table does not depend on the order
// events reached the profiler. Each kind's Stat is read once, so a fold
// running beside the render cannot reorder the rows in mid-sort.
func oracleProfileRows(ch *Chapter) []oracleProfileRow {
	kinds := ch.Profiler.AppendStats(nil)
	rows := make([]oracleProfileRow, len(kinds))
	for i, k := range kinds {
		rows[i] = oracleProfileRow{k.Kind, k.Stat}
	}
	slices.SortFunc(rows, func(a, b oracleProfileRow) int {
		return cmp.Or(cmp.Compare(b.st.TimeNs, a.st.TimeNs), cmp.Compare(a.kind, b.kind))
	})
	return rows
}

func oracleChapterText(ch *Chapter, w io.Writer) error {
	// MPI call profile.
	fmt.Fprintf(w, "\nMPI profile:\n")
	fmt.Fprintf(w, "  %-14s %12s %14s %14s\n", "call", "hits", "time", "total size")
	for _, row := range oracleProfileRows(ch) {
		fmt.Fprintf(w, "  %-14s %12d %14s %14s\n",
			row.kind, row.st.Hits, time.Duration(row.st.TimeNs), oracleHumanBytes(float64(row.st.Bytes)))
	}

	// Topology.
	topo := oracleReadTopology(ch.Topology)
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
		{"MPI_Send hits", ch.Density.AppendMap(nil, trace.KindSend, analysis.MetricHits)},
		{"p2p total size", ch.Density.AppendP2PSizeMap(nil)},
		{"wait time", ch.Density.AppendWaitTimeMap(nil)},
		{"collective time", ch.Density.AppendCollectiveTimeMap(nil)},
	}
	for _, m := range maps {
		st := Stats(m.values)
		if st.Max == 0 {
			continue
		}
		fmt.Fprintf(w, "\nDensity map: %s\n", m.name)
		io.WriteString(w, oracleDensityASCII(m.values, 48))
	}

	// Message-size distribution (optional module).
	if ch.Sizes != nil {
		if hist := ch.Sizes.AppendHistogram(nil); len(hist) > 0 {
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
					oracleHumanBytes(float64(b.Lo)), oracleHumanBytes(float64(b.Hi)), b.Hits,
					oracleHumanBytes(float64(b.Bytes)), bar)
			}
			med := ch.Sizes.MedianBucket()
			fmt.Fprintf(w, "median message size bucket: [%s, %s)\n",
				oracleHumanBytes(float64(med.Lo)), oracleHumanBytes(float64(med.Hi)))
		}
	}

	// Call-site breakdown (optional module).
	if ch.Callsites != nil {
		rows := ch.Callsites.AppendTop(nil, 10)
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
					time.Duration(row.Stat.TimeNs), oracleHumanBytes(float64(row.Stat.Bytes)))
			}
		}
	}

	// Temporal maps (optional module).
	if ch.Temporal != nil && ch.Temporal.Buckets() > 0 {
		window := time.Duration(ch.Temporal.Window())
		fmt.Fprintf(w, "\nTemporal map: communication time per %v window\n", window)
		series := ch.Temporal.AppendCommunicationTimeSeries(nil)
		fmt.Fprintf(w, "|%s|\n", oracleSparkline(series, 72))
		st := Stats(series)
		fmt.Fprintf(w, "peak window: %v busy, mean %v\n", time.Duration(st.Max), time.Duration(st.Mean))
	}

	// Wait-state analysis (optional module).
	if ch.WaitState != nil {
		late := ch.WaitState.AppendLateSenderMap(nil)
		st := Stats(late)
		fmt.Fprintf(w, "\nWait-state analysis: %d send/recv pairs matched, total late-sender wait %s\n",
			ch.WaitState.Pairs(), time.Duration(ch.WaitState.TotalLateNs()))
		if st.Max > 0 {
			io.WriteString(w, oracleDensityASCII(late, 48))
		}
	}

	// Time-resolved window series (optional module). oracleSparklines run over
	// the populated index range, gaps rendered as zero cells, so the
	// virtual-time axis is uniform whatever the event distribution.
	if ch.Windows != nil && ch.Windows.Len() > 0 {
		win := time.Duration(ch.Windows.Window())
		slide := time.Duration(ch.Windows.Slide())
		kind := "tumbling"
		if slide != win {
			kind = "sliding"
		}
		firstIdx, events := ch.Windows.AppendSeries(nil, func(p *analysis.Partial) float64 {
			return float64(p.Profiler.Events())
		})
		fmt.Fprintf(w, "\nWindowed series: %d windows of %v (%s, slide %v), first index %d\n",
			ch.Windows.Len(), win, kind, slide, firstIdx)
		fmt.Fprintf(w, "  events/window     |%s|\n", oracleSparkline(events, 72))
		_, bytes := ch.Windows.AppendSeries(nil, func(p *analysis.Partial) float64 {
			var b int64
			for _, k := range p.Profiler.AppendStats(nil) {
				b += k.Bytes
			}
			return float64(b)
		})
		if st := Stats(bytes); st.Max > 0 {
			fmt.Fprintf(w, "  bytes/window      |%s|\n", oracleSparkline(bytes, 72))
		}
		_, waits := ch.Windows.AppendSeries(nil, func(p *analysis.Partial) float64 {
			if p.Waits == nil {
				return 0
			}
			return float64(p.Waits.TotalLateNs())
		})
		if st := Stats(waits); st.Max > 0 {
			fmt.Fprintf(w, "  late-sender/window |%s|\n", oracleSparkline(waits, 72))
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
		for _, k := range ch.Completeness.AppendKinds(nil) {
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
