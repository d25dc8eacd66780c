package exp

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/nas"
	"repro/internal/trace"
)

// Closed-form communication matrices: each expectation is derived from
// the decomposition the internal/nas skeleton runs — process grid,
// partners, message counts and sizes — and never from the engine, then
// held cell-exact, in hits and bytes, to the edge list of a simulated
// profiling run. Call time is the simulation's and is not predicted.

// topologyCells reads a topology module's written cells, keyed by
// (src, dst), and each rank's degree (its number of distinct peers).
func topologyCells(topo *analysis.TopologyModule) (map[[2]int]analysis.Stat, []int) {
	cells, deg := map[[2]int]analysis.Stat{}, make([]int, topo.Ranks())
	for _, e := range topo.AppendEdges(nil) {
		cells[[2]int{e.Src, e.Dst}] = e.Stat
		deg[e.Src]++
	}
	return cells, deg
}

// expectedCells accumulates a closed-form matrix: send adds hits messages
// of size bytes each to the src→dst cell.
type expectedCells map[[2]int]analysis.Stat

func (c expectedCells) send(src, dst int, hits, size int64) {
	st := c[[2]int{src, dst}]
	st.Hits += hits
	st.Bytes += hits * size
	c[[2]int{src, dst}] = st
}

// profiledTopology runs one workload through the profiling engine and
// returns its written cells and per-rank degrees.
func profiledTopology(t *testing.T, w *nas.Workload) (map[[2]int]analysis.Stat, []int) {
	t.Helper()
	rep, err := ProfileRun(Tera100(), []*nas.Workload{w}, ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return topologyCells(rep.Chapters[0].Topology)
}

// requireCells compares hits and bytes of every cell, both ways.
func requireCells(t *testing.T, want expectedCells, got map[[2]int]analysis.Stat) {
	t.Helper()
	for k, w := range want {
		if g := got[k]; g.Hits != w.Hits || g.Bytes != w.Bytes {
			t.Errorf("cell %d→%d: hits %d bytes %d, want hits %d bytes %d", k[0], k[1], g.Hits, g.Bytes, w.Hits, w.Bytes)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("cell %d→%d written (%+v), not in the closed form", k[0], k[1], g)
		}
	}
}

// TestCGClosedFormMatrix holds CG.A@64 to nas.CG's decomposition: an
// 8×8 process grid (npcols = 2^⌈log2(64)/2⌉); per iteration, per ladder
// level l, 2 Isends of the halving segment to row·npcols + (col ⊕ 2^l);
// then 1 Isend of the full segment to the transpose partner.
func TestCGClosedFormMatrix(t *testing.T) {
	const procs, iters = 64, 2
	const n = 14000 // class A matrix order
	const npcols, nprows = 8, 8
	const segBytes = 8 * (n / nprows)
	w, err := nas.CG(nas.ClassA, procs, iters)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedCells{}
	for me := 0; me < procs; me++ {
		row, col := me/npcols, me%npcols
		size := int64(segBytes)
		for l := 0; 1<<l < npcols; l++ {
			want.send(me, row*npcols+(col^(1<<l)), 2*iters, size)
			if size > 64 {
				size /= 2
			}
		}
		if tr := col*npcols + row; tr != me {
			want.send(me, tr, iters, segBytes)
		}
	}
	cells, _ := profiledTopology(t, w)
	requireCells(t, want, cells)
}

// TestLUClosedFormMatrix holds LU.A@64 to nas.LU's decomposition: an 8×8
// non-periodic mesh of 8×8×64 blocks; per iteration, kBlocks = 8 pipeline
// Sends south and east (lower sweep) and north and west (upper sweep),
// then one halo Isend to every existing neighbour. The degree histogram
// reads 2 for corners, 3 for borders and 4 for the interior.
func TestLUClosedFormMatrix(t *testing.T) {
	const procs, iters = 64, 2
	const n, px, py, kBlocks = 64, 8, 8, 8 // class A grid, grid2D(64)
	w, err := nas.LU(nas.ClassA, procs, iters)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedCells{}
	wantDeg := make([]int, procs)
	for me := 0; me < procs; me++ {
		i, j := me/py, me%py
		nx, ny := int64(n/px), int64(n/py) // chunk: 64 splits evenly
		lineX, lineY := 5*8*ny*(n/kBlocks), 5*8*nx*(n/kBlocks)
		haloX, haloY := 5*8*ny*n, 5*8*nx*n
		for _, nb := range []struct {
			ok         bool
			peer       int
			line, halo int64
		}{
			{i > 0, me - py, lineX, haloX},    // north: upper sweep
			{i < px-1, me + py, lineX, haloX}, // south: lower sweep
			{j > 0, me - 1, lineY, haloY},     // west: upper sweep
			{j < py-1, me + 1, lineY, haloY},  // east: lower sweep
		} {
			if nb.ok {
				want.send(me, nb.peer, kBlocks*iters, nb.line)
				want.send(me, nb.peer, iters, nb.halo)
				wantDeg[me]++
			}
		}
	}
	cells, deg := profiledTopology(t, w)
	requireCells(t, want, cells)
	if !slices.Equal(deg, wantDeg) {
		t.Fatalf("degrees = %v, want %v", deg, wantDeg)
	}
	hist := map[int]int{}
	for _, d := range deg {
		hist[d]++
	}
	// 4 corners, 4·6 border ranks, 6·6 interior ranks.
	if want := map[int]int{2: 4, 3: 24, 4: 36}; !maps.Equal(hist, want) {
		t.Fatalf("degree histogram = %v, want %v", hist, want)
	}
}

// requireCollectives holds a profiled run of w to closed-form collective
// counts: perRank gives each kind's hits and recorded bytes on every rank,
// which the density map must show rank by rank and the profile summed
// over the ranks. The matrix stays empty: collectives never feed it.
func requireCollectives(t *testing.T, w *nas.Workload, perRank map[trace.Kind]analysis.Stat) {
	t.Helper()
	rep, err := ProfileRun(Tera100(), []*nas.Workload{w}, ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch := rep.Chapters[0]
	if edges := ch.Topology.AppendEdges(nil); len(edges) != 0 {
		t.Errorf("%d matrix cells written, want none: %+v", len(edges), edges)
	}
	procs := int64(w.Procs)
	for k, want := range perRank {
		if got := ch.Profiler.Stat(k); got.Hits != procs*want.Hits || got.Bytes != procs*want.Bytes {
			t.Errorf("%v: %d hits %d bytes, want %d hits %d bytes", k, got.Hits, got.Bytes, procs*want.Hits, procs*want.Bytes)
		}
		hits, bytes := ch.Density.AppendMap(nil, k, analysis.MetricHits), ch.Density.AppendMap(nil, k, analysis.MetricBytes)
		for r := range hits {
			if hits[r] != float64(want.Hits) || bytes[r] != float64(want.Bytes) {
				t.Errorf("%v on rank %d: %v hits %v bytes, want %d hits %d bytes", k, r, hits[r], bytes[r], want.Hits, want.Bytes)
			}
		}
	}
}

// TestFTClosedForm holds FT.A@16 to nas.FT's decomposition: a 4×4 pencil
// grid (grid2D(16)) of the 256×256×128 class A array, 16 B per point; per
// iteration one Alltoall over the 4-rank row communicator and one over the
// 4-rank column communicator, each moving the local array once
// (16·256·256·128/16/4/4 B per pair), then the 16 B checksum Allreduce. An
// Alltoall records its per-pair size times the communicator's other ranks.
func TestFTClosedForm(t *testing.T) {
	const procs, iters = 16, 2
	const p1, p2 = 4, 4
	const local = 16 * 256 * 256 * 128 / procs
	w, err := nas.FT(nas.ClassA, procs, iters)
	if err != nil {
		t.Fatal(err)
	}
	rowPair, colPair := int64(local/p2/p2), int64(local/p1/p1)
	requireCollectives(t, w, map[trace.Kind]analysis.Stat{
		trace.KindAlltoall:  {Hits: 2 * iters, Bytes: iters * (rowPair*(p2-1) + colPair*(p1-1))},
		trace.KindAllreduce: {Hits: iters, Bytes: iters * 16},
	})
}

// TestISClosedForm holds IS.A@16 to nas.IS's decomposition: 2^23 keys of
// 4 B, each redistributed once per iteration by one Alltoall over the
// world (4·2^23/16/16 B per pair), between the 4 KiB bucket-size Allreduce
// and the 8 B verification Allreduce.
func TestISClosedForm(t *testing.T) {
	const procs, iters = 16, 2
	w, err := nas.IS(nas.ClassA, procs, iters)
	if err != nil {
		t.Fatal(err)
	}
	perPair := int64(4 * (1 << 23) / procs / procs)
	requireCollectives(t, w, map[trace.Kind]analysis.Stat{
		trace.KindAlltoall:  {Hits: iters, Bytes: iters * perPair * (procs - 1)},
		trace.KindAllreduce: {Hits: 2 * iters, Bytes: iters * (4096 + 8)},
	})
}
