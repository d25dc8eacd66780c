package analysis

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/trace"
)

// windowedEnc builds a canonical windowed encoding for the fuzz seeds:
// every module on plus a per-window series, so the corpus covers the
// trailing window section (index + length-prefixed nested partials).
func windowedEnc(tb testing.TB, seed int64, slideNs int64) []byte {
	tb.Helper()
	const appSize = 4
	opts := allPartialOpts(appSize)
	opts.WindowNs = 1500
	opts.WindowSlideNs = slideNs
	rng := rand.New(rand.NewSource(seed))
	perRank := genRankEvents(rng, appSize, 150)
	return buildPartial(3, opts, perRank, []int{0, 1, 2, 3}).AppendCanonical(nil)
}

// FuzzDecodePartial drives the partial decoder — the payload every
// wire-visible State/Diff frame and every tree delta carries — over
// arbitrary bytes. Malformed input must error, never panic or over-read;
// accepted input must re-encode canonically to bytes that decode to the
// same canonical form (the fixed point the golden tests rely on). Every
// input is also folded into a non-empty receiver with MergeEncoded, which
// must agree with the decoder: accepted input merges to what
// Merge(DecodePartial) gives, rejected input errors and leaves the
// receiver as it was. The corpus includes windowed encodings so the
// trailing window section (count, strictly-increasing indices, nested
// length-prefixed partials) is mutated too, one out-of-order and one
// repeated-key shape for every key-sorted section, a kind above 255 for
// every section keyed by kind, and for every cell section a cell its
// writer never writes (without hits, zero, or an empty kind row).
func FuzzDecodePartial(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	perRank := genRankEvents(rng, 4, 150)
	f.Add(buildPartial(1, allPartialOpts(4), perRank, []int{0, 1, 2, 3}).AppendCanonical(nil))
	f.Add(buildPartial(1, PartialOptions{AppSize: 4}, perRank, []int{0, 1}).AppendCanonical(nil))
	tumbling := windowedEnc(f, 2, 0)
	f.Add(tumbling)
	f.Add(windowedEnc(f, 3, 500))

	// Hostile window count: on an empty windowed series the trailing u32
	// is the window count; claim 2^32-1 windows. The decoder must reject
	// it loudly, not allocate.
	hostile := NewPartial(0, PartialOptions{AppSize: 2, WindowNs: 100}).AppendCanonical(nil)
	binary.LittleEndian.PutUint32(hostile[len(hostile)-4:], 0xFFFFFFFF)
	f.Add(hostile)
	f.Add(tumbling[:len(tumbling)/2])
	f.Add([]byte("VPP1"))
	f.Add([]byte{})
	for bad := 0; bad <= twoKeySections; bad++ {
		f.Add(twoKeyPartial(bad, swappedKeys))
		f.Add(twoKeyPartial(bad, repeatedKeys))
	}
	for _, sec := range twoKeyKindSections {
		f.Add(twoKeyPartial(sec, aliasedKinds))
	}
	for _, sec := range hitlessSections {
		f.Add(hitlessCellPartial(sec, 0))
	}
	f.Add(shedFlaggedPartial())
	accepted, refused := windowLayoutSeeds()
	for _, seed := range append(accepted, refused...) {
		f.Add(seed)
	}
	// The receiver rejected input is merged into: same shape as the
	// twoKeyPartial seeds, so mutants of those get past the header.
	rxOpts := windowedAllOpts(4, 1500)
	rxEvents := genRankEvents(rand.New(rand.NewSource(4)), 4, 60)
	receiver := func(appID uint32, opts PartialOptions) *Partial {
		if opts.AppSize < 4 {
			return NewPartial(appID, opts)
		}
		return buildPartial(appID, opts, rxEvents, []int{0, 1, 3})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Bound per-exec allocation the way the wire fuzzer caps frame
		// lengths: a mutated header claiming thousands of ranks only
		// measures the allocator (the dense matrix is quadratic in app
		// size). The cap rejections themselves are pinned by
		// TestDecodePartialHostileWindows.
		if len(data) >= 12 {
			if n := binary.LittleEndian.Uint32(data[8:]); n > 64 {
				return
			}
		}
		pp, err := DecodePartial(data)
		if err != nil {
			rx := receiver(0, rxOpts)
			before := rx.AppendCanonical(nil)
			if rx.MergeEncoded(data) == nil {
				t.Fatalf("MergeEncoded accepts what DecodePartial rejects (%v)", err)
			}
			if !bytes.Equal(rx.AppendCanonical(nil), before) {
				t.Fatal("rejected MergeEncoded changed the receiver")
			}
			return
		}
		direct, viaDecode := receiver(pp.AppID, pp.Options()), receiver(pp.AppID, pp.Options())
		if err := direct.MergeEncoded(data); err != nil {
			t.Fatalf("MergeEncoded rejects what DecodePartial accepts: %v", err)
		}
		if err := viaDecode.Merge(pp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct.AppendCanonical(nil), viaDecode.AppendCanonical(nil)) {
			t.Fatal("MergeEncoded diverges from Merge(DecodePartial)")
		}
		enc := pp.AppendCanonical(nil)
		dec, err := DecodePartial(enc)
		if err != nil {
			t.Fatalf("canonical re-encode of accepted input fails to decode: %v", err)
		}
		if !bytes.Equal(dec.AppendCanonical(nil), enc) {
			t.Fatal("canonical encoding is not a decode fixed point")
		}
	})
}

// TestDecodePartialHostileWindows pins the loud failure modes of the
// window section outside the fuzzer: an absurd window count is rejected
// before any allocation, and so are out-of-order indices, nested geometry
// drift and a window naming sections the series does not carry.
func TestDecodePartialHostileWindows(t *testing.T) {
	enc := windowedEnc(t, 5, 0)
	pp, err := DecodePartial(enc)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Windows == nil || pp.Windows.Len() < 2 {
		t.Fatalf("seed encoding holds %v windows, want >= 2", pp.Windows.Len())
	}

	// On an empty windowed series the trailing u32 is the window count;
	// the decoder must reject an absurd claim before any allocation.
	empty := NewPartial(0, PartialOptions{AppSize: 2, WindowNs: 100}).AppendCanonical(nil)
	hostile := append([]byte(nil), empty...)
	binary.LittleEndian.PutUint32(hostile[len(hostile)-4:], 0xFFFFFFFF)
	if _, err := DecodePartial(hostile); err == nil || !strings.Contains(err.Error(), "window count") {
		t.Fatalf("hostile window count: err = %v, want loud count rejection", err)
	}

	// One above the cap must also fail, the cap itself is the boundary.
	binary.LittleEndian.PutUint32(hostile[len(hostile)-4:], maxDecodedWindows+1)
	if _, err := DecodePartial(hostile); err == nil || !strings.Contains(err.Error(), "window count") {
		t.Fatalf("window count cap+1: err = %v, want loud count rejection", err)
	}

	// The window layout's seeds: every accepted shape decodes, every
	// broken one is refused.
	accepted, refused := windowLayoutSeeds()
	for i, seed := range accepted {
		if _, err := DecodePartial(seed); err != nil {
			t.Errorf("accepted window seed %d: %v", i, err)
		}
	}
	for i, seed := range refused {
		if _, err := DecodePartial(seed); err == nil {
			t.Errorf("broken window seed %d decoded", i)
		}
	}

	// An implausible app size is rejected before the dense topology
	// matrix (24*N^2 bytes) is allocated — the decoder's memory-bomb
	// guard, found by fuzzing.
	big := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(big[8:], maxDecodedAppSize+1)
	if _, err := DecodePartial(big); err == nil || !strings.Contains(err.Error(), "app size") {
		t.Fatalf("app size cap+1: err = %v, want loud app-size rejection", err)
	}

	// Window geometry outside sanity must be rejected at the header.
	opts := PartialOptions{AppSize: 2, WindowNs: 100}
	wEnc := NewPartial(0, opts).AppendCanonical(nil)
	// The geometry rides right after the temporal window: magic(4) +
	// appid(4) + appsize(4) + flags(4) + temporal(8).
	geomAt := 4 + 4 + 4 + 4 + 8
	bad := append([]byte(nil), wEnc...)
	binary.LittleEndian.PutUint64(bad[geomAt:], ^uint64(0)) // WindowNs = -1
	if _, err := DecodePartial(bad); err == nil || !strings.Contains(err.Error(), "windowed flag with width") {
		t.Fatalf("negative wire window width: err = %v, want loud width rejection", err)
	}
	bad = append([]byte(nil), wEnc...)
	binary.LittleEndian.PutUint64(bad[geomAt+8:], 200) // slide > window
	if _, err := DecodePartial(bad); err == nil || !strings.Contains(err.Error(), "window slide") {
		t.Fatalf("wire slide larger than window: err = %v, want loud slide rejection", err)
	}

	// The temporal map is the other dense-from-sparse decoder: the
	// claimed bucket count is capped at what a writer's rows can hold, or
	// a sub-kilobyte payload forces multi-gigabyte allocations (found by
	// fuzzing as a worker hang), and a coarsening that overflows the width
	// is refused.
	tEnc := NewPartial(0, PartialOptions{AppSize: 2, TemporalWindowNs: 1000}).AppendCanonical(nil)
	// With no events and only the temporal flag set, the encoding ends
	// with the temporal section: bucket count u32, then kind count u32.
	for _, c := range []struct {
		count uint32
		want  string
	}{{maxTemporalBuckets + 1, "bucket count"}, {54 << 24, "overflows"}} {
		tb := append([]byte(nil), tEnc...)
		binary.LittleEndian.PutUint32(tb[len(tb)-8:], c.count)
		if _, err := DecodePartial(tb); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("temporal count word %#x: err = %v, want %q", c.count, err, c.want)
		}
	}
}

// windowLayoutSeeds returns the window layout's shapes for the fuzz corpus.
// Accepted: a run's three delta flushes and its final flush, tumbling and
// sliding; late-sender wait credited to windows; a window credited in a
// later epoch than its events (a receive sealed before its send arrived).
// Refused, one per way a window can break the layout: a header naming a
// flag, app id or app size the series does not carry, a wait rank outside
// the app, a negative index, a length past the section or short of the
// window, cuts inside the section, and a window count one past the cap.
func windowLayoutSeeds() (accepted, refused [][]byte) {
	for _, slide := range []int64{0, 500} {
		pp := NewPartial(3, windowedAllOpts(4, slide))
		perRank := genRankEvents(rand.New(rand.NewSource(7)), 4, 120)
		for epoch := 0; epoch < 3; epoch++ {
			for _, evs := range perRank {
				for _, ev := range evs[epoch*len(evs)/3 : (epoch+1)*len(evs)/3] {
					pp.AddEvent(&ev)
				}
			}
			accepted = append(accepted, pp.Flush(nil, false))
		}
		accepted = append(accepted, pp.Flush(nil, true))
	}
	for _, slide := range []int64{0, 4000} {
		pp := NewPartial(0, PartialOptions{AppSize: 4, WaitState: true, WindowNs: 12_000, WindowSlideNs: slide})
		for _, ev := range tolerantEvents() {
			pp.AddEvent(&ev)
		}
		accepted = append(accepted, pp.AppendCanonical(nil))
	}
	credited := NewPartial(0, PartialOptions{AppSize: 2, WaitState: true, WindowNs: 1000})
	credited.AddEvent(&trace.Event{Kind: trace.KindRecv, Rank: 1, Peer: 0, TStart: 100, TEnd: 900})
	accepted = append(accepted, credited.Flush(nil, false))
	credited.AddEvent(&trace.Event{Kind: trace.KindSend, Rank: 0, Peer: 1, TStart: 5000, TEnd: 5100})
	delta := credited.Flush(nil, false) // window 0: no events, one late pair
	accepted = append(accepted, delta)

	one := NewPartial(0, PartialOptions{AppSize: 2, WaitState: true, WindowNs: 100})
	one.AddEvent(&trace.Event{Kind: trace.KindRecv, Rank: 1, Peer: 0, TStart: 10, TEnd: 20})
	enc := one.AppendCanonical(nil)
	at := bytes.LastIndex(enc, partialMagic[:]) // the window's header, behind its index and length
	edit := func(buf []byte, off int, v uint32) []byte {
		b := bytes.Clone(buf)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	for _, f := range []uint32{flagTemporal, flagCallsites, flagSizes, flagPendings, flagShed, flagWindowed} {
		refused = append(refused, edit(enc, at+12, flagWait|f))
	}
	winLen := binary.LittleEndian.Uint32(enc[at-4:])
	refused = append(refused,
		edit(enc, at+4, 1), // app id
		edit(enc, at+8, 3), // app size
		edit(delta, bytes.Index(delta[4:], partialMagic[:])+4+48, 2), // window 0's late rank
		edit(edit(enc, at-12, ^uint32(0)), at-8, ^uint32(0)),         // index -1
		edit(enc, at-4, winLen+100),
		edit(enc, at-4, winLen-4),
		enc[:at-12], enc[:at-4], enc[:at], enc[:at+12])
	capped := NewPartial(0, PartialOptions{AppSize: 2, WindowNs: 100}).AppendCanonical(nil)
	refused = append(refused, edit(capped, len(capped)-4, maxDecodedWindows+1))
	return accepted, refused
}
