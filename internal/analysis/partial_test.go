package analysis

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// allPartialOpts is the module selection exercised by the merge-law
// tests: every optional module on, so the laws cover callsites, sizes,
// wait-state (including pending queues) and the temporal map.
func allPartialOpts(appSize int) PartialOptions {
	return PartialOptions{
		AppSize:          appSize,
		WaitState:        true,
		TemporalWindowNs: 1000,
		Callsites:        true,
		Sizes:            true,
	}
}

// genRankEvents produces a random per-rank event sequence with
// per-rank non-decreasing timestamps — the invariant real instrument
// streams provide and the sorted-queue wait-state merge relies on.
func genRankEvents(rng *rand.Rand, appSize, n int) [][]trace.Event {
	perRank := make([][]trace.Event, appSize)
	cursors := make([]int64, appSize)
	kinds := []trace.Kind{
		trace.KindSend, trace.KindIsend, trace.KindRecv, trace.KindWait,
		trace.KindBarrier, trace.KindAllreduce, trace.KindPosixWrite,
	}
	for i := 0; i < n; i++ {
		r := rng.Intn(appSize)
		k := kinds[rng.Intn(len(kinds))]
		start := cursors[r] + int64(rng.Intn(50))
		end := start + int64(rng.Intn(200))
		cursors[r] = end
		ev := trace.Event{
			Kind:   k,
			Rank:   int32(r),
			Peer:   int32(rng.Intn(appSize)),
			Tag:    int32(rng.Intn(3)),
			Comm:   uint32(rng.Intn(2)),
			Ctx:    uint32(rng.Intn(5)),
			Size:   int64(rng.Intn(1 << 12)),
			TStart: start,
			TEnd:   end,
		}
		perRank[r] = append(perRank[r], ev)
	}
	return perRank
}

// buildPartial feeds a set of ranks' sequences into a fresh partial in
// round-robin interleaving (any order respecting per-rank order is
// legal; round-robin exercises cross-rank interleaving).
func buildPartial(appID uint32, opts PartialOptions, perRank [][]trace.Event, ranks []int) *Partial {
	pp := NewPartial(appID, opts)
	idx := make([]int, len(ranks))
	for {
		progressed := false
		for i, r := range ranks {
			if idx[i] < len(perRank[r]) {
				ev := perRank[r][idx[i]]
				pp.AddEvent(&ev)
				idx[i]++
				progressed = true
			}
		}
		if !progressed {
			return pp
		}
	}
}

// mergedBytes returns the canonical encoding of a ⊎ b without mutating
// either input (both are rebuilt from scratch by the callers).
func mergedBytes(t *testing.T, a, b *Partial) []byte {
	t.Helper()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	return a.AppendCanonical(nil)
}

// TestPartialMergeCommutative checks a ⊎ b == b ⊎ a on canonical bytes,
// for random rank-partitioned event sets.
func TestPartialMergeCommutative(t *testing.T) {
	const appSize = 6
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		perRank := genRankEvents(rng, appSize, 300)
		opts := allPartialOpts(appSize)
		build := func(ranks []int) *Partial { return buildPartial(7, opts, perRank, ranks) }
		ab := mergedBytes(t, build([]int{0, 1, 2}), build([]int{3, 4, 5}))
		ba := mergedBytes(t, build([]int{3, 4, 5}), build([]int{0, 1, 2}))
		return bytes.Equal(ab, ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialMergeAssociative checks (a ⊎ b) ⊎ c == a ⊎ (b ⊎ c): the
// freedom the tree needs to combine children in any shape.
func TestPartialMergeAssociative(t *testing.T) {
	const appSize = 6
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		perRank := genRankEvents(rng, appSize, 300)
		opts := allPartialOpts(appSize)
		build := func(ranks []int) *Partial { return buildPartial(3, opts, perRank, ranks) }
		left := build([]int{0, 1})
		if err := left.Merge(build([]int{2, 3})); err != nil {
			t.Fatal(err)
		}
		if err := left.Merge(build([]int{4, 5})); err != nil {
			t.Fatal(err)
		}
		rightTail := build([]int{2, 3})
		if err := rightTail.Merge(build([]int{4, 5})); err != nil {
			t.Fatal(err)
		}
		right := build([]int{0, 1})
		if err := right.Merge(rightTail); err != nil {
			t.Fatal(err)
		}
		return bytes.Equal(left.AppendCanonical(nil), right.AppendCanonical(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialMergeIdentity checks the empty partial is a two-sided
// identity, and that rank-partitioned merge reproduces the flat
// all-events partial — the tree-vs-flat equivalence in miniature.
func TestPartialMergeIdentity(t *testing.T) {
	const appSize = 5
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		perRank := genRankEvents(rng, appSize, 250)
		opts := allPartialOpts(appSize)
		flat := buildPartial(1, opts, perRank, []int{0, 1, 2, 3, 4})
		want := flat.AppendCanonical(nil)

		withEmpty := buildPartial(1, opts, perRank, []int{0, 1, 2, 3, 4})
		if err := withEmpty.Merge(NewPartial(1, opts)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(withEmpty.AppendCanonical(nil), want) {
			return false
		}
		empty := NewPartial(1, opts)
		if err := empty.Merge(buildPartial(1, opts, perRank, []int{0, 1, 2, 3, 4})); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(empty.AppendCanonical(nil), want) {
			return false
		}
		split := buildPartial(1, opts, perRank, []int{0, 3})
		for _, ranks := range [][]int{{1}, {4, 2}} {
			if err := split.Merge(buildPartial(1, opts, perRank, ranks)); err != nil {
				t.Fatal(err)
			}
		}
		return bytes.Equal(split.AppendCanonical(nil), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialMergeMatchesFlatWaitState pins the wait-state invariant
// directly: pairing after a rank-partitioned merge equals flat pairing
// (pairs, per-rank late time, and unmatched counts all agree).
func TestPartialMergeMatchesFlatWaitState(t *testing.T) {
	const appSize = 4
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		perRank := genRankEvents(rng, appSize, 400)
		opts := allPartialOpts(appSize)
		flat := buildPartial(0, opts, perRank, []int{0, 1, 2, 3})
		tree := buildPartial(0, opts, perRank, []int{0, 2})
		if err := tree.Merge(buildPartial(0, opts, perRank, []int{1, 3})); err != nil {
			t.Fatal(err)
		}
		if f, g := flat.Waits.Pairs(), tree.Waits.Pairs(); f != g {
			t.Fatalf("trial %d: flat %d pairs, merged %d", trial, f, g)
		}
		if f, g := flat.Waits.Unmatched(), tree.Waits.Unmatched(); f != g {
			t.Fatalf("trial %d: flat %d unmatched, merged %d", trial, f, g)
		}
		fm, gm := flat.Waits.LateSenderMap(), tree.Waits.LateSenderMap()
		for r := range fm {
			if fm[r] != gm[r] {
				t.Fatalf("trial %d: rank %d late %v vs %v", trial, r, fm[r], gm[r])
			}
		}
	}
}

// TestPartialEncodeDecodeRoundTrip checks decode(encode(p)) is
// canonically identical to p, with pendings in flight.
func TestPartialEncodeDecodeRoundTrip(t *testing.T) {
	const appSize = 6
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		perRank := genRankEvents(rng, appSize, 200)
		pp := buildPartial(9, allPartialOpts(appSize), perRank, []int{0, 2, 4})
		enc := pp.AppendCanonical(nil)
		dec, err := DecodePartial(enc)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Equal(dec.AppendCanonical(nil), enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialFlushDeltas checks the leaf flush protocol: a sequence of
// non-final flushes plus a final flush, decoded and merged in order,
// equals the unflushed partial — and pending queues only travel with
// the final flush.
func TestPartialFlushDeltas(t *testing.T) {
	const appSize = 4
	rng := rand.New(rand.NewSource(7))
	perRank := genRankEvents(rng, appSize, 600)
	opts := allPartialOpts(appSize)
	want := buildPartial(2, opts, perRank, []int{0, 1, 2, 3}).AppendCanonical(nil)

	// Rebuild, flushing after each rank's events.
	leaf := NewPartial(2, opts)
	acc := NewPartial(2, opts)
	for r := 0; r < appSize; r++ {
		for i := range perRank[r] {
			leaf.AddEvent(&perRank[r][i])
		}
		final := r == appSize-1
		enc := leaf.Flush(nil, final)
		dec, err := DecodePartial(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !final && dec.Waits.Unmatched() != 0 {
			t.Fatalf("non-final flush carried %d pending wait events", dec.Waits.Unmatched())
		}
		if err := acc.Merge(dec); err != nil {
			t.Fatal(err)
		}
	}
	if leaf.Profiler.Events() != 0 {
		t.Fatalf("final flush left %d events behind", leaf.Profiler.Events())
	}
	if got := acc.AppendCanonical(nil); !bytes.Equal(got, want) {
		t.Fatalf("flush-and-merge diverged from the unflushed partial (%d vs %d bytes)", len(got), len(want))
	}
}

// TestDecodePartialMalformed feeds truncations and corruptions of a
// valid encoding through the decoder: every one must error, never
// panic.
func TestDecodePartialMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	perRank := genRankEvents(rng, 4, 200)
	enc := buildPartial(1, allPartialOpts(4), perRank, []int{0, 1, 2, 3}).AppendCanonical(nil)
	for cut := 0; cut < len(enc); cut += 3 {
		if _, err := DecodePartial(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	for i := 0; i < 200; i++ {
		corrupt := append([]byte(nil), enc...)
		corrupt[rng.Intn(len(corrupt))] ^= byte(1 + rng.Intn(255))
		// Either outcome (error or a decoded partial) is fine; what is
		// asserted is the absence of panics and runaway allocation.
		if pp, err := DecodePartial(corrupt); err == nil {
			_ = pp.AppendCanonical(nil)
		}
	}
	if _, err := DecodePartial(nil); err == nil {
		t.Fatal("nil input decoded")
	}
	// A topology cell without hits is not canonical: no encoder writes one,
	// and none would ever emit, or zero, what it left behind in the matrix.
	for _, hits := range []int64{0, -2} {
		buf := hitlessCellPartial(hits)
		if _, err := DecodePartial(buf); err == nil || !strings.Contains(err.Error(), "hits") {
			t.Fatalf("topology cell with %d hits: err = %v, want a rejection naming the hits", hits, err)
		}
		rx := NewPartial(1, PartialOptions{AppSize: 4})
		if err := rx.MergeEncoded(buf); err == nil || rx.Topology.Matrix().TotalBytes() != 0 {
			t.Fatalf("topology cell with %d hits: MergeEncoded err = %v, %d bytes landed in the matrix",
				hits, err, rx.Topology.Matrix().TotalBytes())
		}
	}
}

// hitlessCellPartial hand-assembles an otherwise empty partial whose one
// topology cell carries bytes under the given (non-positive) hit count.
func hitlessCellPartial(hits int64) []byte {
	var w pwriter
	w.buf = append(w.buf, partialMagic[:]...)
	w.u32(1) // app id
	w.u32(4) // app size
	w.u32(0) // flags
	w.i64(0) // temporal window
	w.i64(0) // profiler: no events, no kinds
	w.u32(0)
	w.u32(1) // topology: one cell
	w.u32(6)
	w.stat(Stat{Hits: hits, Bytes: 5})
	w.u32(0) // density kinds
	return w.buf
}
