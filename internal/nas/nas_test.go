package nas

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/instrument"
	"repro/internal/mpi"
	"repro/internal/trace"
)

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

// recordingRun executes a workload with a capturing recorder on every rank
// and returns the aggregated analysis modules plus the program's virtual
// wall time in seconds.
func recordingRun(t *testing.T, w *Workload) (*analysis.ProfilerModule, *analysis.TopologyModule, *analysis.DensityModule, float64) {
	t.Helper()
	prof := &analysis.ProfilerModule{}
	topo := analysis.NewTopologyModule(w.Procs)
	dens := analysis.NewDensityModule(w.Procs)
	var comm *mpi.Comm
	world := mpi.NewWorld(mpi.DefaultConfig(), mpi.Program{
		Name: w.Name, Procs: w.Procs,
		Main: func(r *mpi.Rank) {
			m := instrument.New(r, comm)
			m.SetRecorder(&moduleRecorder{prof: prof, topo: topo, dens: dens})
			w.Run(m)
		},
	})
	comm = world.NewComm(world.ProgramRanks(0))
	if err := world.Run(); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return prof, topo, dens, world.ProgramFinish(0).Seconds()
}

// moduleRecorder feeds events straight into analysis modules (no streams:
// workload-level tests target the pattern, not the transport).
type moduleRecorder struct {
	prof *analysis.ProfilerModule
	topo *analysis.TopologyModule
	dens *analysis.DensityModule
}

func (mr *moduleRecorder) Record(ev *trace.Event) {
	mr.prof.Add(ev)
	mr.topo.Add(ev)
	mr.dens.Add(ev)
}
func (mr *moduleRecorder) Finalize()            {}
func (mr *moduleRecorder) BytesProduced() int64 { return 0 }

func TestGeometryValidation(t *testing.T) {
	if _, err := BT(ClassC, 15, 1); err == nil {
		t.Fatal("BT must reject non-square counts")
	}
	if _, err := SP(ClassC, 17, 1); err == nil {
		t.Fatal("SP must reject non-square counts")
	}
	if _, err := CG(ClassC, 24, 1); err == nil {
		t.Fatal("CG must reject non-power-of-two counts")
	}
	if _, err := BT('Z', 16, 1); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := ByName("nope", ClassC, 16, 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestValidProcs(t *testing.T) {
	cases := []struct {
		kind     string
		in, want int
	}{
		{"BT", 1000, 1024}, {"BT", 1020, 1024}, {"SP", 900, 900}, {"CG", 100, 64}, {"CG", 128, 128},
		{"LU", 48, 48}, {"FT", 0, 1},
	}
	for _, c := range cases {
		if got := ValidProcs(c.kind, c.in); got != c.want {
			t.Fatalf("ValidProcs(%s, %d) = %d, want %d", c.kind, c.in, got, c.want)
		}
	}
}

func TestAllBenchmarksRunToCompletion(t *testing.T) {
	cases := []*Workload{}
	for _, mk := range []struct {
		kind  string
		procs int
	}{
		{"BT", 16}, {"SP", 16}, {"LU", 12}, {"CG", 16}, {"FT", 8}, {"EulerMHD", 12},
		{"MG", 16}, {"EP", 12}, {"IS", 16},
	} {
		w, err := ByName(mk.kind, ClassC, mk.procs, 3)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, w)
	}
	for _, w := range cases {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prof, _, _, wall := recordingRun(t, w)
			if wall <= 0 {
				t.Fatal("no virtual time elapsed")
			}
			if prof.Events() == 0 {
				t.Fatal("no events recorded")
			}
		})
	}
}

func TestLUSendHitsFollowNeighbourCount(t *testing.T) {
	w, err := LU(ClassC, 16, 4) // 4x4 mesh
	if err != nil {
		t.Fatal(err)
	}
	_, topo, dens, _ := recordingRun(t, w)
	hits := dens.AppendMap(nil, trace.KindSend, analysis.MetricHits)
	// 4x4 mesh: corners (0,3,12,15) have 2 neighbours, edges 3, interior 4.
	corner, edge, interior := hits[0], hits[1], hits[5]
	if !(corner < edge && edge < interior) {
		t.Fatalf("send hits should step with neighbour count: corner=%v edge=%v interior=%v",
			corner, edge, interior)
	}
	// Degrees from the topology matrix tell the same story.
	_, deg := topologyCells(topo)
	if deg[5] != 4 || deg[0] != 2 || deg[1] != 3 {
		t.Fatalf("degrees: interior=%d corner=%d edge=%d", deg[5], deg[0], deg[1])
	}
}

func TestCGTopologyBandedPattern(t *testing.T) {
	w, err := CG(ClassC, 16, 2) // 4x4: npcols = nprows = 4
	if err != nil {
		t.Fatal(err)
	}
	_, topo, _, _ := recordingRun(t, w)
	cells, _ := topologyCells(topo)
	// Ladder partners at XOR distance 1 and 2 within the row.
	if cells[[2]int{0, 1}].Hits == 0 {
		t.Fatal("missing distance-1 ladder edge")
	}
	if cells[[2]int{0, 2}].Hits == 0 {
		t.Fatal("missing distance-2 ladder edge")
	}
	// Transpose partner: rank 1 = (0,1) exchanges with (1,0) = rank 4.
	if cells[[2]int{1, 4}].Hits == 0 {
		t.Fatal("missing transpose edge")
	}
	// No edge outside the row except the transpose: (0,1) and (0,2) are in
	// row 0; rank 0 -> rank 5 must be empty.
	if cells[[2]int{0, 5}].Hits != 0 {
		t.Fatal("spurious edge 0->5")
	}
}

func TestBTSymmetricImbalanceMaps(t *testing.T) {
	w, err := BT(ClassC, 16, 4) // 4x4 torus
	if err != nil {
		t.Fatal(err)
	}
	_, _, dens, _ := recordingRun(t, w)
	colls := dens.AppendCollectiveTimeMap(nil)
	// Centre ranks compute longer (bump), so they wait LESS in the
	// collective; border ranks wait more. Check border > centre.
	border := colls[0]
	centre := colls[5]
	if border <= centre {
		t.Fatalf("border collective wait (%v) should exceed centre (%v)", border, centre)
	}
	// The map must be symmetric under the grid's mirror symmetry up to
	// the per-rank jitter: check the transpose correlation rather than
	// exact cells.
	if r := transposeCorrelation(colls, 4); r < 0.8 {
		t.Fatalf("collective map should be symmetric under transpose, correlation = %.3f", r)
	}
	// P2P size spread is small (remainder split only): max/min < 1.35.
	sizes := dens.AppendP2PSizeMap(nil)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range sizes {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi/lo > 1.35 {
		t.Fatalf("p2p size spread too large: %v..%v", lo, hi)
	}
	if hi == lo {
		t.Fatal("expected a small p2p size imbalance from the remainder split")
	}
}

func TestClassCHasHigherEventBandwidthThanD(t *testing.T) {
	// The paper's Bi argument: class C (smaller grid, faster iterations)
	// produces instrumentation data at a higher rate than class D on the
	// same core count.
	bi := func(class Class) float64 {
		w, err := SP(class, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		prof, _, _, wall := recordingRun(t, w)
		var events int64
		for _, ks := range prof.AppendStats(nil) {
			events += ks.Hits
		}
		return float64(events) * 256 / wall // bytes/s at 256 B per event
	}
	biC, biD := bi(ClassC), bi(ClassD)
	if biC <= biD {
		t.Fatalf("Bi(C)=%g should exceed Bi(D)=%g", biC, biD)
	}
	if biC/biD < 3 {
		t.Fatalf("Bi ratio C/D = %.2f, expected a clear separation", biC/biD)
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	run := func() float64 {
		w, err := LU(ClassC, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, wall := recordingRun(t, w)
		return wall
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic wall time: %v vs %v", a, b)
	}
}

func TestIterationScaling(t *testing.T) {
	w3, _ := SP(ClassC, 16, 3)
	w6, _ := SP(ClassC, 16, 6)
	_, _, _, wall3 := recordingRun(t, w3)
	_, _, _, wall6 := recordingRun(t, w6)
	ratio := wall6 / wall3
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("doubling iterations should ~double wall time, ratio = %.2f", ratio)
	}
}

func TestDefaultIterationCounts(t *testing.T) {
	w, _ := SP(ClassD, 16, 0)
	if w.Iters != 500 || w.FullIters != 500 {
		t.Fatalf("SP.D default iters = %d", w.Iters)
	}
	w, _ = BT(ClassC, 16, 0)
	if w.Iters != 200 {
		t.Fatalf("BT.C default iters = %d", w.Iters)
	}
	w, _ = CG(ClassD, 16, 0)
	if w.Iters != 100 {
		t.Fatalf("CG.D default iters = %d", w.Iters)
	}
}

func TestChunkRemainderSplit(t *testing.T) {
	// 10 points over 4 blocks: 3,3,2,2.
	want := []int{3, 3, 2, 2}
	total := 0
	for i, w := range want {
		if got := chunk(10, 4, i); got != w {
			t.Fatalf("chunk(10,4,%d) = %d, want %d", i, got, w)
		}
		total += w
	}
	if total != 10 {
		t.Fatal("chunks must cover all points")
	}
}

func TestGrid2D(t *testing.T) {
	cases := []struct{ p, px, py int }{
		{12, 3, 4}, {16, 4, 4}, {7, 1, 7}, {48, 6, 8},
	}
	for _, c := range cases {
		px, py := grid2D(c.p)
		if px != c.px || py != c.py {
			t.Fatalf("grid2D(%d) = %dx%d, want %dx%d", c.p, px, py, c.px, c.py)
		}
	}
}

func TestFTMovesAllToAll(t *testing.T) {
	w, err := FT(ClassC, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, _, _ := recordingRun(t, w)
	st := prof.Stat(trace.KindAlltoall)
	if st.Hits != 8*2*2 { // 8 ranks × 2 iters × 2 transposes
		t.Fatalf("alltoall hits = %d", st.Hits)
	}
	if st.Bytes == 0 {
		t.Fatal("alltoall moved no bytes")
	}
}

func TestEulerMHDWritesDiagnostics(t *testing.T) {
	w, err := EulerMHD(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, _, _ := recordingRun(t, w)
	if st := prof.Stat(trace.KindPosixWrite); st.Hits != 4 { // 4 ranks × 1 dump
		t.Fatalf("posix writes = %d", st.Hits)
	}
}

// transposeCorrelation computes the Pearson correlation between a q×q map
// and its transpose.
func transposeCorrelation(vals []float64, q int) float64 {
	var a, b []float64
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			a = append(a, vals[i*q+j])
			b = append(b, vals[j*q+i])
		}
	}
	n := float64(len(a))
	var sa, sb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for i := range a {
		cov += (a[i] - ma) * (b[i] - mb)
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
	}
	if va == 0 || vb == 0 {
		return 1
	}
	return cov / math.Sqrt(va*vb)
}

func TestMGHaloSizesShrinkWithLevels(t *testing.T) {
	w, err := MG(ClassC, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	prof, topo, _, _ := recordingRun(t, w)
	// Multigrid touches every level: isend sizes span a wide range.
	st := prof.Stat(trace.KindIsend)
	if st.Hits == 0 {
		t.Fatal("no halo exchanges recorded")
	}
	// A 4x4 mesh: interior ranks have degree 4.
	if _, deg := topologyCells(topo); deg[5] != 4 {
		t.Fatalf("interior degree = %d", deg[5])
	}
}

func TestEPIsComputeDominated(t *testing.T) {
	w, err := EP(ClassC, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, _, wall := recordingRun(t, w)
	var commNs int64
	for _, ks := range prof.AppendStats(nil) {
		if k := ks.Kind; k.IsCollective() || k.IsP2P() || k.IsWait() {
			commNs += ks.TimeNs
		}
	}
	frac := float64(commNs) / 16 / (wall * 1e9)
	if frac > 0.01 {
		t.Fatalf("EP should be compute-dominated; comm fraction = %.4f", frac)
	}
}

func TestISMovesAllKeys(t *testing.T) {
	w, err := IS(ClassC, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, _, _ := recordingRun(t, w)
	st := prof.Stat(trace.KindAlltoall)
	if st.Hits != 16*2 {
		t.Fatalf("alltoall hits = %d", st.Hits)
	}
	// Every key crosses once per iteration; summed over ranks and the two
	// iterations: 4 B x keys x (p-1)/p x 2.
	want := int64(4) * (1 << 27) * 15 / 16 * 2
	if st.Bytes != want {
		t.Fatalf("alltoall bytes = %d, want %d", st.Bytes, want)
	}
}

func TestExtraKernelsValidation(t *testing.T) {
	if _, err := MG(ClassC, 12, 1); err == nil {
		t.Fatal("MG must reject non-power-of-two")
	}
	if _, err := IS(ClassC, 10, 1); err == nil {
		t.Fatal("IS must reject non-power-of-two")
	}
	if _, err := EP('Z', 8, 1); err == nil {
		t.Fatal("EP unknown class accepted")
	}
	if _, err := MG('Z', 8, 1); err == nil {
		t.Fatal("MG unknown class accepted")
	}
	if _, err := IS('Z', 8, 1); err == nil {
		t.Fatal("IS unknown class accepted")
	}
	if got := ValidProcs("MG", 100); got != 64 {
		t.Fatalf("ValidProcs(MG,100) = %d", got)
	}
	for _, kind := range []string{"MG", "EP", "IS"} {
		if _, err := ByName(kind, ClassC, 16, 1); err != nil {
			t.Fatalf("ByName(%s): %v", kind, err)
		}
	}
}
