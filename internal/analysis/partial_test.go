package analysis

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
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
		fm, gm := flat.Waits.AppendLateSenderMap(nil), tree.Waits.AppendLateSenderMap(nil)
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
		buf := hitlessCellPartial("topology", hits)
		if _, err := DecodePartial(buf); err == nil || !strings.Contains(err.Error(), "hits") {
			t.Fatalf("topology cell with %d hits: err = %v, want a rejection naming the hits", hits, err)
		}
		rx := NewPartial(1, hitlessCellOpts)
		err := rx.MergeEncoded(buf)
		if landed := slices.ContainsFunc(rx.Topology.mat.cells, func(c Stat) bool { return c != Stat{} }); err == nil || landed {
			t.Fatalf("topology cell with %d hits: MergeEncoded err = %v, landed in the matrix: %v", hits, err, landed)
		}
	}
	// Nor is any other cell its section's writer skips. Folded in, a sizes
	// bucket or a wait rank without hits would keep its bytes or its late
	// time in the module, and the next encode would drop them unseen.
	for _, sec := range hitlessSections {
		if _, err := DecodePartial(hitlessCellPartial(sec, 1)); err != nil {
			t.Fatalf("%s: the same cell with a hit: %v", sec, err)
		}
		buf := hitlessCellPartial(sec, 0)
		if _, err := DecodePartial(buf); err == nil || !strings.Contains(err.Error(), "no encoder writes") {
			t.Errorf("%s: err = %v, want the unwritten cell refused", sec, err)
		}
		rx := NewPartial(1, hitlessCellOpts)
		before := rx.AppendCanonical(nil)
		if err := rx.MergeEncoded(buf); err == nil || !bytes.Equal(rx.AppendCanonical(nil), before) {
			t.Errorf("%s: MergeEncoded err = %v, or the receiver changed", sec, err)
		}
	}
}

// TestDecodePartialRefusesShedFlagWithoutShed: the header flags a shed
// ledger only when it holds a shed event, so a flagged section without one
// — empty, or of kept-only cells — is refused by DecodePartial and leaves a
// MergeEncoded receiver as it was. Accepted, the next encode would drop
// the flag and the section (48 → 44 bytes for the empty one).
func TestDecodePartialRefusesShedFlagWithoutShed(t *testing.T) {
	empty := shedFlaggedPartial()
	if len(empty) != 48 {
		t.Fatalf("the empty case is %d bytes, want 48", len(empty))
	}
	for name, buf := range map[string][]byte{"empty": empty, "kept only": shedFlaggedPartial(ShedStat{Kept: 5})} {
		if _, err := DecodePartial(buf); err == nil || !strings.Contains(err.Error(), "without a shed event") {
			t.Errorf("%s: err = %v, want the flagged section without a shed event refused", name, err)
		}
		rx := NewPartial(1, PartialOptions{AppSize: 2})
		if err := rx.MergeEncoded(buf); err == nil || rx.Shed != nil {
			t.Errorf("%s: MergeEncoded err = %v, ledger %v", name, err, rx.Shed)
		}
	}
	shed := shedFlaggedPartial(ShedStat{Shed: 1, Kept: 5})
	pp, err := DecodePartial(shed)
	if err != nil {
		t.Fatal(err)
	}
	if again := pp.AppendCanonical(nil); !bytes.Equal(again, shed) {
		t.Fatalf("a ledger with a shed event re-encodes to %d bytes, not its own %d", len(again), len(shed))
	}
}

// shedFlaggedPartial hand-assembles an empty partial of two ranks (44
// bytes) with the shed flag set and a shed section holding cells, one per
// stat, under kinds 1, 2, ...
func shedFlaggedPartial(cells ...ShedStat) []byte {
	w := pwriter{buf: NewPartial(1, PartialOptions{AppSize: 2}).AppendCanonical(nil)}
	binary.LittleEndian.PutUint32(w.buf[12:], binary.LittleEndian.Uint32(w.buf[12:])|flagShed)
	w.u32(uint32(len(cells)))
	for k, st := range cells {
		w.u32(uint32(k + 1))
		w.i64(st.Shed)
		w.i64(st.Kept)
	}
	return w.buf
}

// hitlessSections names the cell sections hitlessCellPartial can plant a
// cell in; a "row" is a kind table's kind with no cells under it.
var hitlessSections = []string{"profiler", "topology", "density", "density row", "wait sums",
	"temporal", "temporal row", "call sites", "sizes", "shed"}

// hitlessCellOpts is the module selection of hitlessCellPartial's
// encodings, but for the shed ledger, which only its "shed" one carries.
var hitlessCellOpts = PartialOptions{AppSize: 4, WaitState: true, TemporalWindowNs: 1000, Callsites: true, Sizes: true}

// hitlessCellPartial hand-assembles a partial without events whose one
// cell sits in section sec (of hitlessSections) and has the given hits.
// With hits != 0 it is a cell an encoder writes. With hits 0 it is one no
// encoder writes: bytes or late time without hits where the section's
// writer tests hits (topology, wait sums, sizes), a zero value where it
// tests for zero, and an empty row in a kind table.
func hitlessCellPartial(sec string, hits int64) []byte {
	val := Stat{}
	if hits != 0 {
		val = Stat{Hits: hits, Bytes: 5}
	}
	var w pwriter
	count := func(planted bool) bool { // a cell list's count: the one cell, or none
		n := uint32(0)
		if planted {
			n = 1
		}
		w.u32(n)
		return planted
	}
	table := func(name string) { // kind 1, whose row holds the cell or is the empty "row"
		if count(sec == name || sec == name+" row") {
			w.u32(1)
			if count(sec == name || hits != 0) {
				w.u32(2)
				w.stat(val)
			}
		}
	}
	flags := flagWait | flagTemporal | flagCallsites | flagSizes
	if sec == "shed" {
		flags |= flagShed
	}
	w.buf = append(w.buf, partialMagic[:]...)
	w.u32(1) // app id
	w.u32(uint32(hitlessCellOpts.AppSize))
	w.u32(flags)
	w.i64(hitlessCellOpts.TemporalWindowNs)
	w.i64(0) // profiler: events, then kinds
	if count(sec == "profiler") {
		w.u32(1)
		w.stat(val)
	}
	if count(sec == "topology") {
		w.u32(6)
		w.stat(Stat{Hits: hits, Bytes: 5})
	}
	table("density")
	w.i64(0) // wait sums: pairs, then ranks
	if count(sec == "wait sums") {
		w.u32(2)
		w.i64(777) // late time
		w.i64(hits)
	}
	w.u32(0) // pending sends
	w.u32(0) // pending receives
	w.u32(4) // temporal buckets
	table("temporal")
	if count(sec == "call sites") {
		w.u32(9) // ctx
		w.u32(1) // kind
		w.stat(val)
	}
	if count(sec == "sizes") {
		w.u32(3)
		w.i64(hits)
		w.i64(999) // bytes
	}
	if sec == "shed" {
		w.u32(1)
		w.u32(1)
		w.i64(hits) // shed
		w.i64(0)    // kept
	}
	return w.buf
}
