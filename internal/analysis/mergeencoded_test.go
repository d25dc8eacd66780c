package analysis

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// windowedAllOpts is every module on, windows included.
func windowedAllOpts(appSize int, slideNs int64) PartialOptions {
	opts := allPartialOpts(appSize)
	opts.WindowNs = 1500
	opts.WindowSlideNs = slideNs
	return opts
}

// randomPartial folds a random rank subset of a random event set (so
// wait-state channels are left half-paired: pending queues) and a random
// shed ledger.
func randomPartial(rng *rand.Rand, appID uint32, opts PartialOptions, shed bool) *Partial {
	perRank := genRankEvents(rng, opts.AppSize, 120+rng.Intn(200))
	var ranks []int
	for r := 0; r < opts.AppSize; r++ {
		if rng.Intn(3) > 0 {
			ranks = append(ranks, r)
		}
	}
	pp := buildPartial(appID, opts, perRank, ranks)
	if shed {
		pp.AddAudit([]trace.AuditEntry{
			{Kind: trace.KindSend, Shed: int64(rng.Intn(50)), Kept: int64(rng.Intn(500))},
			{Kind: trace.KindBarrier, Shed: int64(1 + rng.Intn(9)), Kept: int64(rng.Intn(90))},
		})
	}
	return pp
}

// TestMergeEncodedMatchesDecodeMerge is the walker's defining property:
// for random partials — every module, tumbling and sliding windows,
// pending wait queues, shed ledgers; canonical, final-flush and delta-
// flush encodings — folding the bytes in is byte-identical to decoding
// them and merging the decoded partial, and a buffer that fails anywhere
// (truncated, trailing junk, flipped byte) leaves the receiver untouched.
func TestMergeEncodedMatchesDecodeMerge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := windowedAllOpts(5, []int64{0, 500}[rng.Intn(2)])
		shed := rng.Intn(2) == 0
		xSeed := rng.Int63()
		newX := func() *Partial { return randomPartial(rand.New(rand.NewSource(xSeed)), 4, opts, shed) }
		y := randomPartial(rng, 4, opts, rng.Intn(2) == 0)
		var enc []byte
		switch rng.Intn(3) {
		case 0:
			enc = y.AppendCanonical(nil)
		case 1:
			enc = y.Flush(nil, true)
		default:
			enc = y.Flush(nil, false)
		}

		direct, viaDecode := newX(), newX()
		if err := direct.MergeEncoded(enc); err != nil {
			t.Errorf("seed %d: MergeEncoded: %v", seed, err)
			return false
		}
		dec, err := DecodePartial(enc)
		if err != nil {
			t.Errorf("seed %d: DecodePartial: %v", seed, err)
			return false
		}
		if err := viaDecode.Merge(dec); err != nil {
			t.Errorf("seed %d: Merge: %v", seed, err)
			return false
		}
		if !bytes.Equal(direct.AppendCanonical(nil), viaDecode.AppendCanonical(nil)) {
			t.Errorf("seed %d: MergeEncoded diverges from Merge(DecodePartial)", seed)
			return false
		}

		x := newX()
		before := x.AppendCanonical(nil)
		bad := [][]byte{
			enc[:rng.Intn(len(enc))],
			enc[:len(enc)-1], // fails in the very last section, after all the others checked out
			append(append([]byte(nil), enc...), 0),
		}
		for i := 0; i < 8; i++ {
			flipped := append([]byte(nil), enc...)
			flipped[rng.Intn(len(flipped))] ^= byte(1 + rng.Intn(255))
			bad = append(bad, flipped)
		}
		for i, b := range bad {
			if err := x.MergeEncoded(b); err == nil {
				if i < 3 {
					t.Errorf("seed %d: malformed buffer %d merged without error", seed, i)
					return false
				}
				x = newX() // a flip that still parses is a legal merge
				continue
			}
			if !bytes.Equal(x.AppendCanonical(nil), before) {
				t.Errorf("seed %d: failed MergeEncoded (buffer %d) changed the receiver", seed, i)
				return false
			}
		}
		return true
	}
	// Pinned: this seed's byte flip lands in a pending receive's rank and
	// makes it negative; pairing it used to index lateNs out of range.
	if !f(-6541456248569249401) {
		t.Fatal("pinned seed failed")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFlushResetLeavesNothingBehind: the in-place reset is a reset. A
// partial flushed and refolded with the same events flushes the same
// bytes again — final flushes with every module, delta flushes without
// the wait-state module (whose queues a delta flush keeps on purpose),
// and with it over a run of three delta epochs closed by a final flush:
// a send of one epoch pairs with its receive in the next, so what a delta
// flush leaves behind on purpose crosses epoch boundaries, and the second
// run of the same epochs must still flush the first run's bytes, epoch by
// epoch.
func TestFlushResetLeavesNothingBehind(t *testing.T) {
	f := func(seed int64, final bool) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := windowedAllOpts(6, []int64{0, 500}[rng.Intn(2)])
		opts.WaitState = final
		perRank := genRankEvents(rng, opts.AppSize, 300)
		pp := NewPartial(1, opts)
		fold := func() {
			for r := range perRank {
				for i := range perRank[r] {
					pp.AddEvent(&perRank[r][i])
				}
			}
			pp.AddAudit([]trace.AuditEntry{{Kind: trace.KindRecv, Shed: 3, Kept: 40}})
		}
		fold()
		first := pp.Flush(nil, final)
		if empty := NewPartial(1, opts).AppendCanonical(nil); !bytes.Equal(pp.AppendCanonical(nil), empty) {
			t.Errorf("seed %d final=%v: a flushed partial does not encode as an empty one", seed, final)
			return false
		}
		fold()
		if !bytes.Equal(pp.Flush(nil, final), first) {
			t.Errorf("seed %d final=%v: refolding after a flush encodes differently", seed, final)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}

	epochs := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := windowedAllOpts(6, []int64{0, 500}[rng.Intn(2)])
		perRank := genRankEvents(rng, opts.AppSize, 450)
		const deltas = 3
		pp := NewPartial(1, opts)
		run := func() (flushed [][]byte, crossed int64) {
			for e := 0; e <= deltas; e++ {
				for r := range perRank { // epoch e: the e-th quarter of every rank's events
					n := len(perRank[r])
					for i := e * n / (deltas + 1); i < (e+1)*n/(deltas+1); i++ {
						pp.AddEvent(&perRank[r][i])
					}
				}
				if e > 0 {
					// What this epoch pairs beyond what it could pair alone
					// is a pair across its boundary.
					alone := NewPartial(1, opts)
					for r := range perRank {
						n := len(perRank[r])
						for i := e * n / (deltas + 1); i < (e+1)*n/(deltas+1); i++ {
							alone.AddEvent(&perRank[r][i])
						}
					}
					crossed += pp.Waits.Pairs() - alone.Waits.Pairs()
				}
				flushed = append(flushed, pp.Flush(nil, e == deltas))
			}
			return flushed, crossed
		}
		first, crossed := run()
		if crossed == 0 {
			t.Errorf("seed %d: no channel paired across an epoch boundary", seed)
			return false
		}
		if empty := NewPartial(1, opts).AppendCanonical(nil); !bytes.Equal(pp.AppendCanonical(nil), empty) {
			t.Errorf("seed %d: after the final flush the partial does not encode as an empty one", seed)
			return false
		}
		second, _ := run()
		for e := range first {
			if !bytes.Equal(second[e], first[e]) {
				t.Errorf("seed %d: epoch %d of the second run flushes differently", seed, e)
				return false
			}
		}
		return true
	}
	if err := quick.Check(epochs, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The key pairs twoKeyPartial can plant in one section: out of order,
// repeated, and — for a section keyed by kind — ascending but with a
// second key that is kind 1 again once truncated to a uint8.
var (
	swappedKeys  = [2]uint32{2, 1}
	repeatedKeys = [2]uint32{1, 1}
	aliasedKinds = [2]uint32{1, 257}
)

// twoKeyPartial hand-assembles a small encoding with every module on,
// a shed ledger and a two-window series, where every key-sorted section
// holds exactly two keys: 1 and 2, except that section bad (1-based, 0 =
// none) gets badKeys.
func twoKeyPartial(bad int, badKeys [2]uint32) []byte {
	section := 0
	keys := func() (uint32, uint32) {
		section++
		if section == bad {
			return badKeys[0], badKeys[1]
		}
		return 1, 2
	}
	st := Stat{Hits: 1, Bytes: 2, TimeNs: 3}
	profiler := func(w *pwriter) {
		a, b := keys() // profiler kinds
		w.i64(2)
		w.u32(2)
		w.u32(a)
		w.stat(st)
		w.u32(b)
		w.stat(st)
	}
	waitSums := func(w *pwriter) {
		a, b := keys() // wait ranks
		w.i64(0)
		w.u32(2)
		for _, r := range []uint32{a, b} {
			w.u32(r)
			w.i64(5)
			w.i64(1)
		}
	}
	body := func(w *pwriter) {
		profiler(w)
		a, b := keys() // topology cells
		w.u32(2)
		w.u32(a)
		w.stat(st)
		w.u32(b)
		w.stat(st)
		a, b = keys() // density kinds
		w.u32(2)
		for i, k := range []uint32{a, b} {
			c, d := uint32(1), uint32(2)
			if i == 0 {
				c, d = keys() // density ranks (of the first kind)
			}
			w.u32(k)
			w.u32(2)
			w.u32(c)
			w.stat(st)
			w.u32(d)
			w.stat(st)
		}
		waitSums(w)
		a, b = keys() // send channels
		w.u32(2)
		for _, src := range []uint32{a, b} {
			w.chanKey(chanKey{src: int32(src), dst: 0, tag: -1, comm: 0})
			w.u32(1)
			w.i64(7)
		}
		a, b = keys() // recv channels
		w.u32(2)
		for _, tag := range []uint32{a, b} {
			w.chanKey(chanKey{src: 3, dst: 0, tag: int32(tag), comm: 0})
			w.u32(1)
			w.u32(0)
			w.i64(7)
			w.i64(9)
		}
	}
	outer := func(w *pwriter) {
		a, b := keys() // temporal kinds
		w.u32(4)
		w.u32(2)
		for i, k := range []uint32{a, b} {
			c, d := uint32(1), uint32(2)
			if i == 0 {
				c, d = keys() // temporal buckets (of the first kind)
			}
			w.u32(k)
			w.u32(2)
			w.u32(c)
			w.stat(st)
			w.u32(d)
			w.stat(st)
		}
	}
	callsites := func(w *pwriter) {
		a, b := keys() // call-site keys (same ctx, two kinds)
		w.u32(2)
		for _, k := range []uint32{a, b} {
			w.u32(9)
			w.u32(k)
			w.stat(st)
		}
	}
	header := func(w *pwriter, opts PartialOptions, flags uint32) {
		w.buf = append(w.buf, partialMagic[:]...)
		w.u32(0)
		w.u32(uint32(opts.AppSize))
		w.u32(flags)
		w.i64(opts.TemporalWindowNs)
		if opts.WindowNs > 0 {
			w.i64(opts.WindowNs)
			w.i64(opts.WindowSlideNs)
		}
	}
	opts := windowedAllOpts(4, 1500)
	var w pwriter
	header(&w, opts, flagWait|flagTemporal|flagCallsites|flagSizes|flagPendings|flagShed|flagWindowed)
	body(&w)
	outer(&w)
	callsites(&w)
	a, b := keys() // size buckets
	w.u32(2)
	for _, k := range []uint32{a, b} {
		w.u32(k)
		w.i64(1)
		w.i64(64)
	}
	a, b = keys() // shed kinds
	w.u32(2)
	for _, k := range []uint32{a, b} {
		w.u32(k)
		w.i64(1)
		w.i64(10)
	}
	a, b = keys() // window indices
	w.u32(2)
	for _, idx := range []uint32{a, b} {
		w.i64(int64(idx))
		lenAt := w.reserve()
		header(&w, innerWindowOptions(opts), flagWait)
		profiler(&w)
		waitSums(&w)
		w.backfill(lenAt, len(w.buf)-lenAt-4)
	}
	return w.buf
}

// twoKeySections is how many key-sorted sections twoKeyPartial writes:
// 12 in the outer partial, the window index, and 2 (profiler kinds, wait
// ranks) in each of the two windows.
const twoKeySections = 12 + 1 + 2*2

// twoKeyKindSections lists the sections of twoKeyPartial keyed by kind,
// in the order it writes them: profiler, density, temporal, call-sites
// and shed in the outer partial, then the profiler of each window.
var twoKeyKindSections = []int{1, 3, 8, 10, 12, 14, 16}

// TestDecodePartialRejectsUnsortedKeys: every key-sorted section refuses
// keys out of order and keys repeated. With an additive walker a repeat
// would be a silent double count.
func TestDecodePartialRejectsUnsortedKeys(t *testing.T) {
	good := twoKeyPartial(0, swappedKeys)
	pp, err := DecodePartial(good)
	if err != nil {
		t.Fatalf("well-ordered hand-built partial: %v", err)
	}
	if !bytes.Equal(pp.AppendCanonical(nil), good) {
		t.Fatal("hand-built partial is not in canonical form")
	}
	for bad := 1; bad <= twoKeySections; bad++ {
		for _, keys := range [][2]uint32{swappedKeys, repeatedKeys} {
			buf := twoKeyPartial(bad, keys)
			if len(buf) != len(good) {
				t.Fatalf("section %d: builder drifted", bad)
			}
			_, err := DecodePartial(buf)
			if err == nil || !strings.Contains(err.Error(), "out of order") {
				t.Errorf("section %d keys %v: err = %v, want an out-of-order rejection", bad, keys, err)
			}
			rx := NewPartial(0, pp.Options())
			if err := rx.MergeEncoded(buf); err == nil {
				t.Errorf("section %d keys %v: MergeEncoded accepted it", bad, keys)
			}
		}
	}
	if buf := twoKeyPartial(twoKeySections+1, swappedKeys); !bytes.Equal(buf, good) {
		t.Fatalf("twoKeySections = %d undercounts the builder's sections", twoKeySections)
	}
}

// TestDecodePartialRejectsWideKinds: a kind is a uint8 everywhere but in
// the partial encoding, which spells it as a u32. Kinds {1, 257} pass the
// strictly-ascending check, and truncated to a Kind they are {1, 1}: the
// silent double count the ordering rule exists to prevent. Every section
// keyed by kind must refuse a key above 255, and a refused MergeEncoded
// must leave the receiver as it was.
func TestDecodePartialRejectsWideKinds(t *testing.T) {
	// The smallest case: a profiler section listing kinds 1 and 257 in an
	// otherwise empty partial.
	var w pwriter
	w.buf = append(w.buf, partialMagic[:]...)
	w.u32(0) // app id
	w.u32(4) // app size
	w.u32(0) // flags
	w.i64(0) // temporal window
	w.i64(2) // profiler: events, then two kinds
	w.u32(2)
	for _, k := range aliasedKinds {
		w.u32(k)
		w.stat(Stat{Hits: 1})
	}
	w.u32(0) // topology cells
	w.u32(0) // density kinds
	if pp, err := DecodePartial(w.buf); err == nil {
		t.Fatalf("profiler kinds %v decoded; MPI_Send now has %d hits", aliasedKinds, pp.Profiler.Stat(trace.KindSend).Hits)
	} else if !strings.Contains(err.Error(), "kind 257") {
		t.Fatalf("err = %v, want a rejection naming kind 257", err)
	}

	good := twoKeyPartial(0, aliasedKinds)
	opts := windowedAllOpts(4, 1500)
	for _, sec := range twoKeyKindSections {
		buf := twoKeyPartial(sec, aliasedKinds)
		if bytes.Equal(buf, good) {
			t.Fatalf("section %d: builder drifted", sec)
		}
		if _, err := DecodePartial(buf); err == nil || !strings.Contains(err.Error(), "kind 257") {
			t.Errorf("section %d: err = %v, want a rejection naming kind 257", sec, err)
		}
		rx := buildPartial(0, opts, genRankEvents(rand.New(rand.NewSource(4)), 4, 60), []int{0, 1, 3})
		before := rx.AppendCanonical(nil)
		if err := rx.MergeEncoded(buf); err == nil {
			t.Errorf("section %d: MergeEncoded accepted it", sec)
		}
		if !bytes.Equal(rx.AppendCanonical(nil), before) {
			t.Errorf("section %d: the rejected MergeEncoded changed the receiver", sec)
		}
	}
}

// TestSealCycleAllocsIndependentOfAppSize guards the daemon's seal path
// next to the epoch-merge guard: one steady-state Flush → MergeEncoded
// cycle of the same 2 000 events allocates what the delta holds — the
// same bytes at 64 ranks and at 512 (within 2×), where re-allocating or
// copying a dense ranks² matrix anywhere on the path shows as ~64×. And
// it allocates few objects: at 256 ranks the cycle, fold included, stays
// under 50, where growing the wait-state queues (a delta flush leaves them
// behind) one slice at a time costs hundreds.
func TestSealCycleAllocsIndependentOfAppSize(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	perRank := genRankEvents(rng, 32, 2000) // ranks every app size has
	cycleAllocs := func(appSize int) (bytes, objects uint64) {
		opts := windowedAllOpts(appSize, 0)
		opts.WindowNs = 20000
		delta, cum := NewPartial(1, opts), NewPartial(1, opts)
		var buf []byte
		cycle := func() {
			for r := range perRank {
				for i := range perRank[r] {
					delta.AddEvent(&perRank[r][i])
				}
			}
			buf = delta.Flush(buf[:0], false)
			if err := cum.MergeEncoded(buf); err != nil {
				t.Fatal(err)
			}
		}
		cycle()
		cycle()
		const cycles = 5
		bytes, objects = allocatedBy(func() {
			for i := 0; i < cycles; i++ {
				cycle()
			}
		})
		return bytes / cycles, objects / cycles
	}
	small, _ := cycleAllocs(64)
	large, _ := cycleAllocs(512)
	t.Logf("Flush→MergeEncoded cycle: %d B at 64 ranks, %d B at 512", small, large)
	if large > 2*small+4096 {
		t.Errorf("seal cycle allocates %d B at 512 ranks vs %d B at 64: it scales with the app size", large, small)
	}
	_, objects := cycleAllocs(256)
	t.Logf("fold→Flush→MergeEncoded cycle at 256 ranks: %d objects", objects)
	if objects > 50 {
		t.Errorf("seal cycle allocates %d objects at 256 ranks, want ≤ 50", objects)
	}
}
