package analysis

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
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
// every section keyed by kind, and a topology cell without hits.
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
	f.Add(hitlessCellPartial(0))
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
// before any allocation, and so are out-of-order indices and nested
// geometry drift.
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

	// The temporal map is the other dense-from-sparse decoder: both the
	// claimed bucket count and the cells the entries materialize are
	// capped, or a sub-kilobyte payload forces multi-gigabyte
	// allocations (found by fuzzing as a worker hang).
	tEnc := NewPartial(0, PartialOptions{AppSize: 2, TemporalWindowNs: 1000}).AppendCanonical(nil)
	tb := append([]byte(nil), tEnc...)
	// With no events and only the temporal flag set, the encoding ends
	// with the temporal section: bucket count u32, then kind count u32.
	binary.LittleEndian.PutUint32(tb[len(tb)-8:], maxDecodedTemporalBuckets+1)
	if _, err := DecodePartial(tb); err == nil || !strings.Contains(err.Error(), "bucket count") {
		t.Fatalf("temporal bucket cap+1: err = %v, want loud bucket rejection", err)
	}
	tb = append([]byte(nil), tEnc[:len(tEnc)-8]...)
	u32 := func(v uint32) {
		var w [4]byte
		binary.LittleEndian.PutUint32(w[:], v)
		tb = append(tb, w[:]...)
	}
	u32(maxDecodedTemporalBuckets) // claimed bucket count, at the cap
	u32(2)                         // two kinds, each naming the top bucket
	for k := uint32(0); k < 2; k++ {
		u32(k)                               // kind
		u32(1)                               // one entry
		u32(maxDecodedTemporalBuckets - 1)   // bucket index
		tb = append(tb, make([]byte, 24)...) // zero Stat
	}
	if _, err := DecodePartial(tb); err == nil || !strings.Contains(err.Error(), "cells") {
		t.Fatalf("temporal cells cap: err = %v, want loud cells rejection", err)
	}
}
