package analysis

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/blackboard"
	"repro/internal/trace"
)

// replicaTestOpts is the full module selection, wait-state included —
// the hardest case for the merge (sorted pending-queue moves).
func replicaTestOpts() PartialOptions {
	return PartialOptions{AppSize: 4, WaitState: true, TemporalWindowNs: 100, Callsites: true, Sizes: true}
}

// interleavedWorkload builds one randomized multi-rank stream in a fixed
// global order: the order the serial baseline folds it in.
func interleavedWorkload(n int) []trace.Event {
	perRank := make([][]trace.Event, 4)
	for r := int32(0); r < 4; r++ {
		perRank[r] = fusedWorkload(r, n)
	}
	var evs []trace.Event
	for i := 0; i < n; i++ {
		for r := 0; r < 4; r++ {
			evs = append(evs, perRank[r][i])
		}
	}
	return evs
}

// TestReplicaParallelFoldMatchesSerial is the correctness core of the
// replica layer, and the race-detector target: N goroutines fold a
// round-robin partition of a randomized interleaved stream into private
// replicas, the replicas are merged (MergeReset) into one canonical
// partial, and the canonical encoding must be byte-identical to folding
// the whole stream serially — for every worker count, wait-state
// pending queues included.
func TestReplicaParallelFoldMatchesSerial(t *testing.T) {
	evs := interleavedWorkload(500)

	serial := NewPartial(7, replicaTestOpts())
	for i := range evs {
		serial.AddEvent(&evs[i])
	}
	golden := serial.AppendCanonical(nil)

	for _, workers := range []int{1, 2, 4, 8} {
		reps := make([]*Replica, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rep := NewReplica(7, replicaTestOpts())
				for i := w; i < len(evs); i += workers {
					rep.Fold(&evs[i])
				}
				reps[w] = rep
			}(w)
		}
		wg.Wait()
		merged := NewPartial(7, replicaTestOpts())
		for _, rep := range reps {
			if err := merged.MergeReset(rep.Partial()); err != nil {
				t.Fatal(err)
			}
		}
		got := merged.AppendCanonical(nil)
		if !bytes.Equal(got, golden) {
			t.Errorf("workers=%d: merged canonical encoding diverged from serial (%d vs %d bytes)",
				workers, len(got), len(golden))
		}
		// The reset side of the merge: replicas are empty, reusable, and a
		// second fold+merge cycle still matches.
		for _, rep := range reps {
			if n := rep.Partial().Profiler.Events(); n != 0 {
				t.Fatalf("workers=%d: replica kept %d events after MergeReset", workers, n)
			}
		}
	}
}

// TestReplicaMergeResetIdempotent pins that a drained replica merges as
// a no-op: canonical state is unchanged by merging an empty replica.
func TestReplicaMergeResetIdempotent(t *testing.T) {
	evs := interleavedWorkload(100)
	rep := NewReplica(1, replicaTestOpts())
	for i := range evs {
		rep.Fold(&evs[i])
	}
	canon := NewPartial(1, replicaTestOpts())
	if err := canon.MergeReset(rep.Partial()); err != nil {
		t.Fatal(err)
	}
	before := canon.AppendCanonical(nil)
	if err := canon.MergeReset(rep.Partial()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon.AppendCanonical(nil), before) {
		t.Error("merging a drained replica changed canonical state")
	}
}

// TestReplicaFoldZeroAllocs guards the fold hot path: folding events
// into a warmed replica allocates nothing. Wait-state is excluded — its
// pending queues legitimately grow with unpaired events; the remaining
// modules (including callsites, sizes and temporal) must be
// steady-state allocation-free.
func TestReplicaFoldZeroAllocs(t *testing.T) {
	opts := PartialOptions{AppSize: 4, TemporalWindowNs: 100, Callsites: true, Sizes: true}
	evs := interleavedWorkload(200)
	rep := NewReplica(1, opts)
	for i := range evs {
		rep.Fold(&evs[i])
	}
	fold := rep.FoldFunc()
	allocs := testing.AllocsPerRun(20, func() {
		for i := range evs {
			fold(&evs[i])
		}
	})
	if allocs != 0 {
		t.Errorf("replica fold allocates %.1f per warmed batch, want 0", allocs)
	}
}

// TestEpochMergeZeroAllocs guards the merge scratch: a steady-state
// fold+merge epoch cycle — fold a batch into a warmed replica, MergeReset
// it into a warmed canonical partial — allocates nothing. This is what
// makes short epochs affordable: no re-encoding, no snapshot copies.
func TestEpochMergeZeroAllocs(t *testing.T) {
	opts := PartialOptions{AppSize: 4, TemporalWindowNs: 100, Callsites: true, Sizes: true}
	evs := interleavedWorkload(200)
	rep := NewReplica(1, opts)
	canon := NewPartial(1, opts)
	fold := rep.FoldFunc()
	for i := range evs {
		fold(&evs[i])
	}
	if err := canon.MergeReset(rep.Partial()); err != nil {
		t.Fatal(err)
	}
	var mergeErr error
	allocs := testing.AllocsPerRun(20, func() {
		for i := range evs {
			fold(&evs[i])
		}
		if err := canon.MergeReset(rep.Partial()); err != nil {
			mergeErr = err
		}
	})
	if mergeErr != nil {
		t.Fatal(mergeErr)
	}
	if allocs != 0 {
		t.Errorf("fold+merge epoch cycle allocates %.1f, want 0", allocs)
	}
}

// canonicalOf snapshots a pipeline's module state as a canonical partial
// encoding (test-only comparison form).
func canonicalOf(p *Pipeline) []byte {
	pp := NewPartial(0, p.PartialOptions())
	pp.Profiler.Merge(p.Profiler)
	pp.Topology.Merge(p.Topology)
	pp.Density.Merge(p.Density)
	if pp.Waits != nil {
		pp.Waits.MergeFull(p.state.Waits)
	}
	if pp.Temporal != nil {
		pp.Temporal.Merge(p.state.Temporal)
	}
	if pp.Callsites != nil {
		pp.Callsites.Merge(p.state.Callsites)
	}
	if pp.Sizes != nil {
		pp.Sizes.Merge(p.state.Sizes)
	}
	return pp.AppendCanonical(nil)
}

// fullPipeline builds a dispatcher+pipeline with every module enabled on
// a fresh board.
func fullPipeline(t *testing.T, workers int) (*Dispatcher, *Pipeline) {
	t.Helper()
	bb := blackboard.New(blackboard.Config{Workers: workers})
	t.Cleanup(bb.Close)
	d, err := NewDispatcher(bb)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.AddApp(7, "app", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableWaitState(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableTemporal(100); err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableCallsites(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableSizes(); err != nil {
		t.Fatal(err)
	}
	return d, p
}

// TestEnableReplicasBoardMatchesFlat runs the same v2 pack stream
// through the flat board path and the replica board path (short epochs,
// so mid-stream merges happen) and requires byte-identical canonical
// state after Drain+Settle.
func TestEnableReplicasBoardMatchesFlat(t *testing.T) {
	const ranks, perRank = 4, 300
	run := func(replicas bool) []byte {
		d, p := fullPipeline(t, 4)
		if replicas {
			if err := p.EnableReplicas(64); err != nil {
				t.Fatal(err)
			}
		}
		for r := int32(0); r < ranks; r++ {
			evs := fusedWorkload(r, perRank)
			b := trace.NewPackBuilder(7, r, 48, 1<<11)
			for i := range evs {
				if b.Add(&evs[i]) {
					d.PostRaw(b.Take())
				}
			}
			if last := b.Take(); last != nil {
				d.PostRaw(last)
			}
		}
		d.bb.Drain()
		p.Settle()
		return canonicalOf(p)
	}
	flat := run(false)
	rep := run(true)
	if !bytes.Equal(flat, rep) {
		t.Error("replica board path diverged from flat board path")
	}
}

// TestParallelFusedIngestMatchesSerial drives the same per-writer v3
// pack streams through the serial fused ingest and through a
// lane-partitioned one with concurrent producers and short merge
// epochs; canonical state must be byte-identical after Sync.
func TestParallelFusedIngestMatchesSerial(t *testing.T) {
	const ranks, perRank = 4, 300
	streams := make([][][]byte, ranks)
	for r := int32(0); r < ranks; r++ {
		streams[r] = packStreamV3(7, r, fusedWorkload(r, perRank))
	}
	run := func(lanes int) []byte {
		d, p := fullPipeline(t, 4)
		f := NewParallelFusedIngest(d, lanes, 4)
		var wg sync.WaitGroup
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for _, pk := range streams[r] {
					if _, err := f.Absorb(r, pk); err != nil {
						t.Error(err)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		if lanes > 1 && p.Profiler.Events() == 0 {
			t.Error("no lane epoch merge reached the state before Sync")
		}
		d.bb.Drain()
		f.Sync()
		p.Settle()
		return canonicalOf(p)
	}
	serial := run(1)
	for _, lanes := range []int{2, 4, 8} {
		if got := run(lanes); !bytes.Equal(got, serial) {
			t.Errorf("lanes=%d: parallel fused ingest diverged from serial", lanes)
		}
	}
}

// TestReplicaExportExclusion pins the mode exclusion both ways: the
// exporter is an IO proxy on the raw event flow, which replica folding
// removes.
func TestReplicaExportExclusion(t *testing.T) {
	_, p := fullPipeline(t, 2)
	if _, err := p.EnableExport("sel", nil); err != nil {
		t.Fatal(err)
	}
	if err := p.EnableReplicas(0); err == nil {
		t.Error("EnableReplicas after EnableExport succeeded")
	}

	_, p2 := fullPipeline(t, 2)
	if err := p2.EnableReplicas(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.EnableExport("sel", nil); err == nil {
		t.Error("EnableExport after EnableReplicas succeeded")
	}
	if err := p2.EnableReplicas(0); err == nil {
		t.Error("double EnableReplicas succeeded")
	}
}
