package exp

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/nas"
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
