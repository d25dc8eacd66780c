package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
)

func mat3() *analysis.Matrix {
	m := analysis.NewMatrix(3)
	topo := analysis.NewTopologyModule(3)
	add := func(src, dst int32, size int64) {
		topo.Add(&trace.Event{Kind: trace.KindSend, Rank: src, Peer: dst, Size: size, TStart: 0, TEnd: 10})
	}
	add(0, 1, 100)
	add(1, 2, 200)
	add(2, 0, 300)
	m = topo.Matrix()
	return m
}

func TestMatrixCSV(t *testing.T) {
	csv := MatrixCSV(mat3(), analysis.MetricBytes)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("rows = %d", len(lines))
	}
	if lines[0] != "0,100,0" || lines[2] != "300,0,0" {
		t.Fatalf("csv = %q", csv)
	}
}

func TestMatrixHeatmapShapes(t *testing.T) {
	hm := MatrixHeatmap(mat3(), analysis.MetricBytes, 8)
	lines := strings.Split(strings.TrimSpace(hm), "\n")
	// header + 3 rows (no downsampling needed)
	if len(lines) != 4 {
		t.Fatalf("heatmap lines = %d:\n%s", len(lines), hm)
	}
	if len(lines[1]) != 3 {
		t.Fatalf("row width = %d", len(lines[1]))
	}
	// The largest value must render brighter than an empty cell.
	if lines[3][0] == ' ' {
		t.Fatal("hot cell rendered blank")
	}
}

func TestMatrixHeatmapDownsamples(t *testing.T) {
	topo := analysis.NewTopologyModule(100)
	for i := int32(0); i < 100; i++ {
		topo.Add(&trace.Event{Kind: trace.KindSend, Rank: i, Peer: (i + 1) % 100, Size: 10, TEnd: 1})
	}
	hm := MatrixHeatmap(topo.Matrix(), analysis.MetricHits, 10)
	lines := strings.Split(strings.TrimSpace(hm), "\n")
	if len(lines) != 11 {
		t.Fatalf("downsampled heatmap lines = %d", len(lines))
	}
	if len(lines[1]) != 10 {
		t.Fatalf("downsampled width = %d", len(lines[1]))
	}
}

func TestDOTOutput(t *testing.T) {
	dot := DOT("cg", mat3(), analysis.MetricBytes)
	if !strings.HasPrefix(dot, "digraph \"cg\"") {
		t.Fatalf("dot header: %q", dot[:30])
	}
	for _, edge := range []string{"0 -> 1", "1 -> 2", "2 -> 0"} {
		if !strings.Contains(dot, edge) {
			t.Fatalf("missing edge %q in:\n%s", edge, dot)
		}
	}
	if strings.Contains(dot, "0 -> 2") {
		t.Fatal("spurious edge")
	}
	// Heaviest edge gets max penwidth 5.00.
	if !strings.Contains(dot, "penwidth=5.00") {
		t.Fatalf("max edge not scaled:\n%s", dot)
	}
}

func TestGridShape(t *testing.T) {
	cases := []struct{ n, cols, rows int }{
		{1, 1, 1}, {4, 2, 2}, {8, 3, 3}, {9, 3, 3}, {10, 4, 3}, {1024, 32, 32}, {0, 0, 0},
	}
	for _, c := range cases {
		cols, rows := GridShape(c.n)
		if cols != c.cols || rows != c.rows {
			t.Fatalf("GridShape(%d) = %d,%d want %d,%d", c.n, cols, rows, c.cols, c.rows)
		}
		if c.n > 0 && cols*rows < c.n {
			t.Fatalf("grid too small for %d", c.n)
		}
	}
}

func TestStats(t *testing.T) {
	st := Stats([]float64{1, 2, 3, 6})
	if st.Min != 1 || st.Max != 6 || st.Mean != 3 || st.Imbalance != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if z := Stats(nil); z.Max != 0 {
		t.Fatalf("empty stats = %+v", z)
	}
}

func TestDensityASCII(t *testing.T) {
	vals := make([]float64, 16)
	vals[0], vals[15] = 0, 100
	s := DensityASCII(vals, 64)
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // header + 4 rows
		t.Fatalf("lines = %d:\n%s", len(lines), s)
	}
	if lines[1][0] != ' ' {
		t.Fatal("min cell should be blank")
	}
	if lines[4][3] != '@' {
		t.Fatalf("max cell should be brightest, got %q", lines[4])
	}
}

func TestDensityPGM(t *testing.T) {
	vals := []float64{0, 50, 100, 25}
	pgm := string(DensityPGM(vals))
	if !strings.HasPrefix(pgm, "P2\n2 2\n255\n") {
		t.Fatalf("pgm header: %q", pgm)
	}
	if !strings.Contains(pgm, "255") {
		t.Fatal("max pixel missing")
	}
	lines := strings.Split(strings.TrimSpace(pgm), "\n")
	if lines[3] != "0 127" {
		t.Fatalf("first pixel row = %q", lines[3])
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{500, "500 B"},
		{2048, "2.00 KB"},
		{1 << 20, "1.00 MB"},
		{333.22 * (1 << 30), "333.22 GB"},
	}
	for _, c := range cases {
		if got := HumanBytes(c.in); got != c.want {
			t.Fatalf("HumanBytes(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestReportRender(t *testing.T) {
	prof := analysis.NewProfilerModule(4)
	topo := analysis.NewTopologyModule(4)
	dens := analysis.NewDensityModule(4)
	for i := int32(0); i < 4; i++ {
		ev := trace.Event{Kind: trace.KindSend, Rank: i, Peer: (i + 1) % 4, Size: 1000, TStart: 0, TEnd: 500}
		prof.Add(&ev)
		topo.Add(&ev)
		dens.Add(&ev)
		wv := trace.Event{Kind: trace.KindWait, Rank: i, Peer: -1, TStart: 0, TEnd: int64(100 * (i + 1))}
		prof.Add(&wv)
		dens.Add(&wv)
	}
	r := &Report{
		Title: "online profiling report",
		Chapters: []*Chapter{{
			App: "bt.C.16", Procs: 4, WallTime: 2 * time.Second,
			Profiler: prof, Topology: topo, Density: dens,
		}},
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"chapter 1: bt.C.16",
		"MPI_Send",
		"MPI_Wait",
		"degree histogram",
		"Density map: MPI_Send hits",
		"Density map: wait time",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}

	// Rows tied on time, MPI_Init and MPI_Finalize at zero among them,
	// come out in kind order in the text and in the LaTeX rendering alike.
	tied := analysis.NewProfilerModule(1)
	var want []string
	for k := trace.KindSend; int(k) < trace.KindCount; k++ {
		ns := int64(k%3) * 100
		if k == trace.KindInit || k == trace.KindFinalize {
			ns = 0
		}
		tied.Add(&trace.Event{Kind: k, Peer: -1, TEnd: ns})
	}
	for _, ns := range []int64{200, 100, 0} {
		for k := trace.KindSend; int(k) < trace.KindCount; k++ {
			if tied.Stat(k).TimeNs == ns {
				want = append(want, k.String())
			}
		}
	}
	r.Chapters[0].Profiler = tied
	buf.Reset()
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	_, text, _ := strings.Cut(buf.String(), "total size\n")
	text, _, _ = strings.Cut(text, "\n\n")
	buf.Reset()
	if err := r.RenderLaTeX(&buf); err != nil {
		t.Fatal(err)
	}
	_, tex, _ := strings.Cut(buf.String(), "\\midrule\n")
	tex, _, _ = strings.Cut(tex, "\\bottomrule")
	var textRows, texRows []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		textRows = append(textRows, strings.Fields(line)[0])
	}
	for _, line := range strings.Split(strings.TrimSpace(tex), "\n") {
		name, _, _ := strings.Cut(line, " & ")
		texRows = append(texRows, strings.ReplaceAll(name, "\\_", "_"))
	}
	if got, w := strings.Join(textRows, " "), strings.Join(want, " "); got != w {
		t.Errorf("text rows:\n got %s\nwant %s", got, w)
	}
	if got, w := strings.Join(texRows, " "), strings.Join(want, " "); got != w {
		t.Errorf("LaTeX rows:\n got %s\nwant %s", got, w)
	}
}

// Property: PGM output always has cols*rows pixels, all within 0..255.
func TestPGMWellFormedProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		if len(vals) == 0 {
			return true
		}
		pgm := string(DensityPGM(vals))
		lines := strings.Split(strings.TrimSpace(pgm), "\n")
		if lines[0] != "P2" {
			return false
		}
		var cols, rows int
		if _, err := fmtSscanf(lines[1], &cols, &rows); err != nil {
			return false
		}
		count := 0
		for _, line := range lines[3:] {
			for _, f := range strings.Fields(line) {
				var px int
				if _, err := fmtSscanfOne(f, &px); err != nil || px < 0 || px > 255 {
					return false
				}
				count++
			}
		}
		return count == cols*rows && cols*rows >= len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func fmtSscanf(s string, cols, rows *int) (int, error) {
	n, err := sscan(s, cols, rows)
	return n, err
}

func fmtSscanfOne(s string, v *int) (int, error) {
	return sscan(s, v)
}

func sscan(s string, targets ...*int) (int, error) {
	fields := strings.Fields(s)
	n := 0
	for i, f := range fields {
		if i >= len(targets) {
			break
		}
		var v int
		for _, ch := range f {
			if ch < '0' || ch > '9' {
				return n, errNotDigit
			}
			v = v*10 + int(ch-'0')
		}
		*targets[i] = v
		n++
	}
	return n, nil
}

var errNotDigit = &strErr{"not a digit"}

type strErr struct{ s string }

func (e *strErr) Error() string { return e.s }

func TestWriteJSON(t *testing.T) {
	prof := analysis.NewProfilerModule(4)
	topo := analysis.NewTopologyModule(4)
	dens := analysis.NewDensityModule(4)
	sizes := analysis.NewSizesModule()
	for i := int32(0); i < 4; i++ {
		ev := trace.Event{Kind: trace.KindSend, Rank: i, Peer: (i + 1) % 4, Size: 1000, TStart: 0, TEnd: 500}
		prof.Add(&ev)
		topo.Add(&ev)
		dens.Add(&ev)
		sizes.Add(&ev)
	}
	r := &Report{
		Title: "json test",
		Chapters: []*Chapter{{
			App: "x", Procs: 4, WallTime: time.Second,
			Profiler: prof, Topology: topo, Density: dens, Sizes: sizes,
		}},
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	var decoded JSONReport
	if err := jsonUnmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Title != "json test" || len(decoded.Chapters) != 1 {
		t.Fatalf("decoded = %+v", decoded)
	}
	ch := decoded.Chapters[0]
	if ch.Procs != 4 || ch.WallSeconds != 1 {
		t.Fatalf("chapter = %+v", ch)
	}
	if len(ch.Profile) == 0 || ch.Profile[0].Call != "MPI_Send" || ch.Profile[0].Hits != 4 {
		t.Fatalf("profile = %+v", ch.Profile)
	}
	if ch.Topology.TotalBytes != 4000 || ch.Topology.Edges != 4 || len(ch.Topology.BytesRows) != 4 {
		t.Fatalf("topology = %+v", ch.Topology)
	}
	if ch.Density["send_hits"].Max != 1 {
		t.Fatalf("density = %+v", ch.Density["send_hits"])
	}
	if len(ch.Sizes) != 1 || ch.Sizes[0].Hits != 4 {
		t.Fatalf("sizes = %+v", ch.Sizes)
	}
	// Without the matrix, the dense rows are omitted.
	var lean bytes.Buffer
	if err := r.WriteJSON(&lean, false); err != nil {
		t.Fatal(err)
	}
	if lean.Len() >= buf.Len() {
		t.Fatal("matrix-free JSON should be smaller")
	}
}

func jsonUnmarshal(b []byte, v any) error { return json.Unmarshal(b, v) }
