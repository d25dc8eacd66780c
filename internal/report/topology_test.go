package report

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/blackboard"
	"repro/internal/trace"
)

// TestRankRelabellingRelation is a metamorphic relation over the matrix
// and the density maps: relabelling Rank and Peer of a stream by a
// permutation π turns the edge list into {(π(src), π(dst))} with equal
// cells, permutes every density map by π, and leaves the rendered degree
// histogram as it was.
func TestRankRelabellingRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	metrics := []analysis.Metric{analysis.MetricHits, analysis.MetricBytes, analysis.MetricTime}
	for _, n := range []int{1, 7, 48, 61, 130} {
		events := randomStream(rng, n)
		pi := rng.Perm(n)
		relabel := func(r int32) int32 {
			if r < 0 || int(r) >= n {
				return r // out of range either way: dropped by both folds
			}
			return int32(pi[r])
		}
		moved := slices.Clone(events)
		for i := range moved {
			moved[i].Rank, moved[i].Peer = relabel(moved[i].Rank), relabel(moved[i].Peer)
		}
		a := oracleChapter(oracleCase{"a", n, events})
		b := oracleChapter(oracleCase{"b", n, moved})

		want := a.Chapters[0].Topology.AppendEdges(nil)
		for i := range want {
			want[i].Src, want[i].Dst = pi[want[i].Src], pi[want[i].Dst]
		}
		slices.SortFunc(want, func(x, y analysis.Edge) int { return (x.Src*n + x.Dst) - (y.Src*n + y.Dst) })
		if got := b.Chapters[0].Topology.AppendEdges(nil); !slices.Equal(got, want) {
			t.Fatalf("n=%d: relabelled edges\n got %+v\nwant %+v", n, got, want)
		}

		da, db := a.Chapters[0].Density, b.Chapters[0].Density
		maps := [][2][]float64{
			{da.AppendP2PSizeMap(nil), db.AppendP2PSizeMap(nil)},
			{da.AppendWaitTimeMap(nil), db.AppendWaitTimeMap(nil)},
			{da.AppendCollectiveTimeMap(nil), db.AppendCollectiveTimeMap(nil)},
		}
		for k := 0; k < trace.KindCount; k++ {
			for _, w := range metrics {
				maps = append(maps, [2][]float64{da.AppendMap(nil, trace.Kind(k), w), db.AppendMap(nil, trace.Kind(k), w)})
			}
		}
		for i, m := range maps {
			for r, v := range m[0] {
				if m[1][pi[r]] != v {
					t.Fatalf("n=%d: density map %d: rank %d holds %v, its image %d holds %v", n, i, r, v, pi[r], m[1][pi[r]])
				}
			}
		}

		if ha, hb := degreeLine(t, a), degreeLine(t, b); ha != hb {
			t.Fatalf("n=%d: degree histogram changed under relabelling:\n%s\n%s", n, ha, hb)
		}
	}
}

// degreeLine returns the rendered report's degree histogram line.
func degreeLine(t *testing.T, r *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	_, line, ok := strings.Cut(buf.String(), "degree histogram:")
	if !ok {
		t.Fatal("no degree histogram rendered")
	}
	line, _, _ = strings.Cut(line, "\n")
	return line
}

// TestRenderDuringFold renders text, JSON and artifacts in a loop while
// another goroutine folds packs into the same pipeline; each renderer
// reads a module under its lock once per render. Run under -race. The
// final renderings must equal those of the same packs folded serially.
func TestRenderDuringFold(t *testing.T) {
	const ranks, perRank = 16, 800
	rng := rand.New(rand.NewSource(9))
	type pack struct {
		src  int32
		seq  int // the pack's position in its rank's stream
		data []byte
	}
	var packs []pack
	for r := int32(0); r < ranks; r++ {
		b := trace.NewPackBuilderV3(7, r, 48, 1<<10)
		now := int64(0)
		for i := 0; i < perRank; i++ {
			now += int64(rng.Intn(40)) + 1
			ev := trace.Event{Kind: trace.KindSend, Rank: r, Peer: int32(rng.Intn(ranks)),
				Size: int64(rng.Intn(1 << 12)), TStart: now, TEnd: now + int64(rng.Intn(30))}
			if i%3 == 1 {
				ev.Kind, ev.Peer = trace.KindWait, -1
			}
			if i%3 == 2 {
				ev.Kind, ev.Peer = trace.KindAllreduce, -1
			}
			if b.Add(&ev) {
				packs = append(packs, pack{r, i, b.Take()})
			}
		}
		if last := b.Take(); last != nil {
			packs = append(packs, pack{r, perRank, last})
		}
	}
	// Interleave the ranks round-robin, each rank's packs in stream order.
	slices.SortStableFunc(packs, func(a, b pack) int { return a.seq - b.seq })
	pipeline := func() (*analysis.Pipeline, *Report) {
		bb := blackboard.New(blackboard.Config{Workers: 1})
		t.Cleanup(bb.Close)
		p, err := analysis.NewPipeline(bb, "app", ranks)
		if err != nil {
			t.Fatal(err)
		}
		return p, &Report{Title: "t", Chapters: []*Chapter{{App: "app", Procs: ranks,
			Profiler: p.Profiler, Topology: p.Topology, Density: p.Density, Completeness: p.Completeness}}}
	}
	fold := func(p *analysis.Pipeline) {
		decs := make([]trace.StreamDecoder, ranks)
		for i, pk := range packs {
			if _, err := p.FoldPack(&decs[pk.src], pk.data); err != nil {
				t.Error(err)
			}
			if i%16 == 0 {
				runtime.Gosched() // let the renderers in on one P too
			}
		}
	}
	render := func(r *Report) (string, []byte, map[string][]byte) {
		var text bytes.Buffer
		if err := r.Render(&text); err != nil {
			t.Error(err)
		}
		var js bytes.Buffer
		if err := r.WriteJSON(&js, true); err != nil {
			t.Error(err)
		}
		return text.String(), js.Bytes(), r.Artifacts()
	}

	serial, serialRep := pipeline()
	fold(serial)
	wantText, wantJSON, wantFiles := render(serialRep)

	p, rep := pipeline()
	done := make(chan struct{})
	var readers sync.WaitGroup
	for _, read := range []func(){
		func() { rep.Render(io.Discard) },
		func() { rep.ToJSON(true) },
		func() { rep.Artifacts() },
	} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				read()
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	fold(p)
	close(done)
	readers.Wait()
	text, js, files := render(rep)
	if text != wantText || !bytes.Equal(js, wantJSON) {
		t.Fatal("renderings after a concurrent fold differ from the serial fold's")
	}
	for name, want := range wantFiles {
		if !bytes.Equal(files[name], want) {
			t.Fatalf("artifact %s differs from the serial fold's", name)
		}
	}
}

// TestRenderNotRanksSquared renders a 2 048-rank ring through text,
// LaTeX and JSON without the dense matrix: each reads the written cells
// alone, so none allocates anything near the 100 MB a ranks² clone of
// the matrix takes.
func TestRenderNotRanksSquared(t *testing.T) {
	const n = 2048
	var events []trace.Event
	for r := int32(0); r < n; r++ {
		events = append(events,
			trace.Event{Kind: trace.KindSend, Rank: r, Peer: (r + 1) % n, Size: 4096, TEnd: 100},
			trace.Event{Kind: trace.KindSend, Rank: r, Peer: (r + n - 1) % n, Size: 4096, TEnd: 100})
	}
	rep := oracleChapter(oracleCase{"ring", n, events})
	for name, render := range map[string]func(){
		"text":  func() { rep.Render(io.Discard) },
		"latex": func() { rep.RenderLaTeX(io.Discard) },
		"json":  func() { rep.ToJSON(false) },
	} {
		render()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 4
		for range runs {
			render()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 2<<20 {
			t.Errorf("%s render of %d ranks allocates %d B per call, want < 2 MB", name, n, per)
		}
	}
}
