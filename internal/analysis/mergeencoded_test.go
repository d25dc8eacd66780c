package analysis

import (
	"bytes"
	"math/rand"
	"runtime"
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFlushResetLeavesNothingBehind: the in-place reset is a reset. A
// partial flushed and refolded with the same events flushes the same
// bytes again — final flushes with every module, delta flushes without
// the wait-state module (whose queues a delta flush keeps on purpose).
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
}

// twoKeyPartial hand-assembles a small encoding with every module on,
// a shed ledger and a two-window series, where every key-sorted section
// holds exactly two keys. Section bad (1-based, 0 = none) gets its two
// keys swapped, or with repeat set the first key twice.
func twoKeyPartial(bad int, repeat bool) []byte {
	section := 0
	keys := func() (uint32, uint32) {
		section++
		switch {
		case section != bad:
			return 1, 2
		case repeat:
			return 1, 1
		}
		return 2, 1
	}
	st := Stat{Hits: 1, Bytes: 2, TimeNs: 3}
	body := func(w *pwriter) {
		a, b := keys() // profiler kinds
		w.i64(2)
		w.u32(2)
		w.u32(a)
		w.stat(st)
		w.u32(b)
		w.stat(st)
		a, b = keys() // topology cells
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
		a, b = keys() // wait ranks
		w.i64(0)
		w.u32(2)
		for _, r := range []uint32{a, b} {
			w.u32(r)
			w.i64(5)
			w.i64(1)
		}
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
		header(&w, innerWindowOptions(opts), flagWait|flagCallsites|flagPendings)
		body(&w)
		callsites(&w)
		w.backfill(lenAt, len(w.buf)-lenAt-4)
	}
	return w.buf
}

// twoKeySections is how many key-sorted sections twoKeyPartial writes:
// 12 in the outer partial, the window index, and 8 in each of the two
// window partials.
const twoKeySections = 12 + 1 + 2*8

// TestDecodePartialRejectsUnsortedKeys: every key-sorted section refuses
// keys out of order and keys repeated. With an additive walker a repeat
// would be a silent double count.
func TestDecodePartialRejectsUnsortedKeys(t *testing.T) {
	good := twoKeyPartial(0, false)
	pp, err := DecodePartial(good)
	if err != nil {
		t.Fatalf("well-ordered hand-built partial: %v", err)
	}
	if !bytes.Equal(pp.AppendCanonical(nil), good) {
		t.Fatal("hand-built partial is not in canonical form")
	}
	for bad := 1; bad <= twoKeySections; bad++ {
		for _, repeat := range []bool{false, true} {
			buf := twoKeyPartial(bad, repeat)
			if len(buf) != len(good) {
				t.Fatalf("section %d: builder drifted", bad)
			}
			_, err := DecodePartial(buf)
			if err == nil || !strings.Contains(err.Error(), "out of order") {
				t.Errorf("section %d repeat=%v: err = %v, want an out-of-order rejection", bad, repeat, err)
			}
			rx := NewPartial(0, pp.Options())
			if err := rx.MergeEncoded(buf); err == nil {
				t.Errorf("section %d repeat=%v: MergeEncoded accepted it", bad, repeat)
			}
		}
	}
	if buf := twoKeyPartial(twoKeySections+1, false); !bytes.Equal(buf, good) {
		t.Fatalf("twoKeySections = %d undercounts the builder's sections", twoKeySections)
	}
}

// TestSealCycleAllocsIndependentOfAppSize guards the daemon's seal path
// next to the epoch-merge guard: one steady-state Flush → MergeEncoded
// cycle of the same 2 000 events allocates what the delta holds — the
// same bytes at 64 ranks and at 512 (within 2×), where re-allocating or
// copying a dense ranks² matrix anywhere on the path shows as ~64×.
func TestSealCycleAllocsIndependentOfAppSize(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	perRank := genRankEvents(rng, 32, 2000) // ranks both app sizes have
	cycleBytes := func(appSize int) uint64 {
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
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		const cycles = 5
		for i := 0; i < cycles; i++ {
			cycle()
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / cycles
	}
	small, large := cycleBytes(64), cycleBytes(512)
	t.Logf("Flush→MergeEncoded cycle: %d B at 64 ranks, %d B at 512", small, large)
	if large > 2*small+4096 {
		t.Errorf("seal cycle allocates %d B at 512 ranks vs %d B at 64: it scales with the app size", large, small)
	}
}
