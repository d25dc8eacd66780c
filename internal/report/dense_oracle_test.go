package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// The dense reference: the renderers as they were when every one of them
// read a ranks² clone of the matrix, kept as the oracle the sparse path
// must match byte for byte. The clone is folded here from the events by
// the topology module's rule (outgoing point-to-point, both ranks in
// range, counted at the sender), so it shares neither the module's cells
// nor its touched index.

type denseMatrix struct {
	n     int
	cells []analysis.Stat
}

func denseFold(n int, events []trace.Event) *denseMatrix {
	m := &denseMatrix{n: n, cells: make([]analysis.Stat, n*n)}
	for _, ev := range events {
		src, dst := int(ev.Rank), int(ev.Peer)
		if !ev.Kind.IsOutgoingP2P() || src < 0 || dst < 0 || src >= n || dst >= n {
			continue
		}
		c := &m.cells[src*n+dst]
		c.Hits++
		c.Bytes += ev.Size
		c.TimeNs += ev.Duration()
	}
	return m
}

func (m *denseMatrix) at(src, dst int) (int64, int64, int64) {
	c := m.cells[src*m.n+dst]
	return c.Hits, c.Bytes, c.TimeNs
}

func (m *denseMatrix) degree(src int) int {
	d := 0
	for _, c := range m.cells[src*m.n : (src+1)*m.n] {
		if c.Hits > 0 {
			d++
		}
	}
	return d
}

func (m *denseMatrix) totalBytes() int64 {
	var t int64
	for i := range m.cells {
		t += m.cells[i].Bytes
	}
	return t
}

func (m *denseMatrix) edges(fn func(src, dst int, hits, bytes, timeNs int64)) {
	for i := range m.cells {
		if c := &m.cells[i]; c.Hits > 0 {
			fn(i/m.n, i%m.n, c.Hits, c.Bytes, c.TimeNs)
		}
	}
}

func denseValue(m *denseMatrix, src, dst int, w analysis.Metric) float64 {
	h, b, t := m.at(src, dst)
	switch w {
	case analysis.MetricHits:
		return float64(h)
	case analysis.MetricBytes:
		return float64(b)
	case analysis.MetricTime:
		return float64(t)
	}
	return 0
}

func denseCSV(m *denseMatrix, w analysis.Metric) string {
	var sb strings.Builder
	for s := 0; s < m.n; s++ {
		for d := 0; d < m.n; d++ {
			if d > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%g", denseValue(m, s, d, w))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func denseHeatmap(m *denseMatrix, w analysis.Metric, maxCells int) string {
	if maxCells <= 0 {
		maxCells = 64
	}
	n := m.n
	cells := n
	if cells > maxCells {
		cells = maxCells
	}
	grid := make([]float64, cells*cells)
	for s := 0; s < n; s++ {
		cs := s * cells / n
		for d := 0; d < n; d++ {
			cd := d * cells / n
			v := denseValue(m, s, d, w)
			if v > grid[cs*cells+cd] {
				grid[cs*cells+cd] = v
			}
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range grid {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "p2p matrix (%s), %d ranks, cell=max-pooled %dx%d\n", w, n, cells, cells)
	for r := 0; r < cells; r++ {
		for c := 0; c < cells; c++ {
			sb.WriteByte(rampChar(grid[r*cells+c], lo, hi))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func denseDOT(name string, m *denseMatrix, w analysis.Metric) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	sb.WriteString("  node [shape=circle, fontsize=8];\n")
	var max float64
	m.edges(func(s, d int, h, b, t int64) {
		v := denseValue(m, s, d, w)
		if v > max {
			max = v
		}
	})
	m.edges(func(s, d int, h, b, t int64) {
		v := denseValue(m, s, d, w)
		pw := 0.5
		if max > 0 {
			pw = 0.5 + 4.5*v/max
		}
		fmt.Fprintf(&sb, "  %d -> %d [penwidth=%.2f, label=\"%g\"];\n", s, d, pw, v)
	})
	sb.WriteString("}\n")
	return sb.String()
}

// denseDegreeHistogram prints the degree histogram with one format per
// (degree, ranks) entry, ascending by degree.
func denseDegreeHistogram(m *denseMatrix, format string) string {
	degs := map[int]int{}
	for rk := 0; rk < m.n; rk++ {
		degs[m.degree(rk)]++
	}
	keys := make([]int, 0, len(degs))
	for d := range degs {
		keys = append(keys, d)
	}
	sort.Ints(keys)
	var sb strings.Builder
	for _, d := range keys {
		fmt.Fprintf(&sb, format, d, degs[d])
	}
	return sb.String()
}

func denseJSONTopology(m *denseMatrix, includeMatrix bool) JSONTopology {
	topo := JSONTopology{Ranks: m.n, TotalBytes: m.totalBytes()}
	topo.Degrees = make([]int, m.n)
	for rk := 0; rk < m.n; rk++ {
		topo.Degrees[rk] = m.degree(rk)
	}
	m.edges(func(s, d int, h, b, t int64) { topo.Edges++ })
	if includeMatrix {
		topo.BytesRows = make([][]int, m.n)
		for s := 0; s < m.n; s++ {
			row := make([]int, m.n)
			for d := 0; d < m.n; d++ {
				_, b, _ := m.at(s, d)
				row[d] = int(b)
			}
			topo.BytesRows[s] = row
		}
	}
	return topo
}

// oracleCase is one stream the sparse renderers are held to the dense
// reference on.
type oracleCase struct {
	name   string
	n      int
	events []trace.Event
}

// randomStream draws point-to-point traffic over n ranks: counted and
// uncounted kinds, out-of-range ranks and peers, zero-byte and negative
// sizes, negative durations, and a ring so every rank has an edge.
func randomStream(rng *rand.Rand, n int) []trace.Event {
	kinds := []trace.Kind{trace.KindSend, trace.KindIsend, trace.KindSendrecv, trace.KindRecv, trace.KindIrecv,
		trace.KindWait, trace.KindBarrier, trace.KindAllreduce}
	var evs []trace.Event
	for r := 0; r < n; r++ {
		evs = append(evs, trace.Event{Kind: trace.KindSend, Rank: int32(r), Peer: int32((r + 1) % n), Size: 64, TEnd: 10})
	}
	for i, count := 0, 2*n+rng.Intn(4*n+8); i < count; i++ {
		ev := trace.Event{
			Kind: kinds[rng.Intn(len(kinds))],
			Rank: int32(rng.Intn(n+2) - 1), Peer: int32(rng.Intn(n+2) - 1),
			TStart: int64(rng.Intn(1000)),
		}
		ev.TEnd = ev.TStart + int64(rng.Intn(500)-50)
		switch rng.Intn(4) {
		case 0:
			ev.Size = 0
		case 1:
			ev.Size = -int64(rng.Intn(1 << 10))
		default:
			ev.Size = int64(rng.Intn(1 << 20))
		}
		evs = append(evs, ev)
	}
	return evs
}

func oracleCases() []oracleCase {
	rng := rand.New(rand.NewSource(44))
	var cases []oracleCase
	for _, n := range []int{1, 3, 47, 48, 49, 60, 61, 100, 257} {
		for seed := 0; seed < 2; seed++ {
			cases = append(cases, oracleCase{fmt.Sprintf("random-%d-%d", n, seed), n, randomStream(rng, n)})
		}
	}
	send := func(src, dst int32, size, ns int64) trace.Event {
		return trace.Event{Kind: trace.KindSend, Rank: src, Peer: dst, Size: size, TEnd: ns}
	}
	var equal, full, zero, negative []trace.Event
	for s := int32(0); s < 3; s++ {
		for d := int32(0); d < 3; d++ {
			equal = append(equal, send(s, d, 7, 5))
		}
	}
	for s := int32(0); s < 5; s++ {
		for d := int32(0); d < 5; d++ {
			full = append(full, send(s, d, int64(1+5*s+d), int64(9-d)))
		}
	}
	for r := int32(0); r < 50; r++ {
		zero = append(zero, send(r, (r+7)%50, 0, 0))
		negative = append(negative, send(r, (r*3)%50, -int64(r)-1, -int64(r)))
	}
	return append(cases,
		oracleCase{"no-ranks", 0, nil},
		oracleCase{"empty", 5, nil},
		oracleCase{"empty-1", 1, nil},
		oracleCase{"single-cell", 4, []trace.Event{send(2, 1, 100, 3)}},
		oracleCase{"self-cell", 1, []trace.Event{send(0, 0, 100, 3)}},
		oracleCase{"all-equal", 3, equal},
		oracleCase{"every-cell", 5, full},
		oracleCase{"zero-byte", 50, zero},
		oracleCase{"negative", 50, negative},
		oracleCase{"zero-and-negative", 50, append(zero, negative...)},
	)
}

// oracleChapter folds the events into a one-chapter report's modules.
func oracleChapter(c oracleCase) *Report {
	prof, topo, dens := &analysis.ProfilerModule{}, analysis.NewTopologyModule(c.n), analysis.NewDensityModule(c.n)
	for i := range c.events {
		prof.Add(&c.events[i])
		topo.Add(&c.events[i])
		dens.Add(&c.events[i])
	}
	return &Report{Title: "oracle", Chapters: []*Chapter{{
		App: "ORACLE.A", Procs: c.n, Profiler: prof, Topology: topo, Density: dens,
		Completeness: analysis.NewCompletenessModule(),
	}}}
}

// TestSparseRenderersMatchDenseOracle holds every topology renderer —
// heat map at the text and LaTeX widths under each metric, degree
// histogram, total volume, CSV, DOT and the JSON topology with its dense
// matrix — to the dense reference, byte for byte, and checks the text,
// LaTeX and artifact renderings carry exactly those bytes.
func TestSparseRenderersMatchDenseOracle(t *testing.T) {
	metrics := []analysis.Metric{analysis.MetricHits, analysis.MetricBytes, analysis.MetricTime}
	for _, c := range oracleCases() {
		t.Run(c.name, func(t *testing.T) {
			dense := denseFold(c.n, c.events)
			rep := oracleChapter(c)
			topo := readTopology(rep.Chapters[0].Topology)
			for _, w := range metrics {
				for _, width := range []int{48, 60} {
					if got, want := string(topo.heatmap(nil, w, width)), denseHeatmap(dense, w, width); got != want {
						t.Fatalf("heatmap(%s, %d):\n got %q\nwant %q", w, width, got, want)
					}
				}
				if got, want := string(topo.csv(w)), denseCSV(dense, w); got != want {
					t.Fatalf("csv(%s):\n got %q\nwant %q", w, got, want)
				}
				if got, want := string(topo.dot("ORACLE.A", w)), denseDOT("ORACLE.A", dense, w); got != want {
					t.Fatalf("dot(%s):\n got %q\nwant %q", w, got, want)
				}
			}
			if topo.bytes != dense.totalBytes() {
				t.Fatalf("total bytes = %d, want %d", topo.bytes, dense.totalBytes())
			}

			var text, tex bytes.Buffer
			if err := rep.Render(&text); err != nil {
				t.Fatal(err)
			}
			if err := rep.RenderLaTeX(&tex); err != nil {
				t.Fatal(err)
			}
			wantText := "\nTopology (total size weighting):\n" + denseHeatmap(dense, analysis.MetricBytes, 48) +
				"degree histogram:" + denseDegreeHistogram(dense, " %d-neighbour:%d") + "\n"
			if !strings.Contains(text.String(), wantText) {
				t.Fatalf("text topology section differs from the dense one:\n%s\nwant it to contain\n%s", text.String(), wantText)
			}
			wantTeX := fmt.Sprintf("Total point-to-point volume: %s. Degree histogram:%s\n\\begin{verbatim}\n%s\\end{verbatim}\n",
				latexEscape(string(buf(nil).size(float64(dense.totalBytes()), 0))),
				denseDegreeHistogram(dense, " %d neighbours $\\times$ %d ranks;"),
				denseHeatmap(dense, analysis.MetricBytes, 60))
			if !strings.Contains(tex.String(), wantTeX) {
				t.Fatalf("LaTeX topology section differs from the dense one:\n%s\nwant it to contain\n%s", tex.String(), wantTeX)
			}

			files := rep.Artifacts()
			for name, want := range map[string]string{
				"ORACLE_A_matrix_bytes.csv": denseCSV(dense, analysis.MetricBytes),
				"ORACLE_A_matrix_hits.csv":  denseCSV(dense, analysis.MetricHits),
				"ORACLE_A_topology.dot":     denseDOT("ORACLE.A", dense, analysis.MetricBytes),
			} {
				if string(files[name]) != want {
					t.Fatalf("artifact %s differs from the dense one", name)
				}
			}

			for _, includeMatrix := range []bool{false, true} {
				got, err := json.Marshal(rep.ToJSON(includeMatrix).Chapters[0].Topology)
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(denseJSONTopology(dense, includeMatrix))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("JSON topology (matrix %v):\n got %s\nwant %s", includeMatrix, got, want)
				}
			}
		})
	}
}
