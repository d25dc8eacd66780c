package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// fig14ishEvent mimics the delta-friendly shape of a streaming workload:
// repeated call sites, advancing timestamps, cycling peers.
func fig14ishEvent(i int) Event {
	kinds := []Kind{KindIsend, KindIrecv, KindWait, KindAllreduce}
	return Event{
		Kind:   kinds[i%len(kinds)],
		Rank:   7,
		Peer:   int32(6 + i%2*2),
		Tag:    int32(100 + i%4),
		Comm:   1,
		Ctx:    uint32(10 + i%3),
		Size:   int64(8192 << (i % 3)),
		TStart: int64(i)*1500 + int64(i%7)*13,
		TEnd:   int64(i)*1500 + 600 + int64(i%5)*21,
	}
}

func TestPackV2RoundTrip(t *testing.T) {
	b := NewPackBuilderV2(3, 9, 64, 1<<16)
	const n = 200
	want := make([]Event, n)
	for i := range want {
		want[i] = fig14ishEvent(i)
		if b.Add(&want[i]) {
			t.Fatalf("pack full after %d events", i+1)
		}
	}
	buf := b.Take()
	h, events, err := DecodePack(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.AppID != 3 || h.SrcRank != 9 || h.Count != n || h.RecordSize != 64 || h.Version != PackV2 {
		t.Fatalf("header = %+v", h)
	}
	if h.WireLen() != len(buf) {
		t.Fatalf("WireLen = %d, pack is %d bytes", h.WireLen(), len(buf))
	}
	if h.LogicalLen() != PackHeaderSize+n*64 {
		t.Fatalf("LogicalLen = %d", h.LogicalLen())
	}
	for i, e := range events {
		if e != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
	// The whole point: a delta-friendly workload must encode far smaller
	// than its logical v1 size.
	if len(buf)*2 > h.LogicalLen() {
		t.Fatalf("v2 pack is %d bytes for logical %d — expected at least 2x reduction", len(buf), h.LogicalLen())
	}
}

// Property: the v2 codec round-trips arbitrary (high-entropy, sign-mixed)
// event tensors, possibly across several packs.
func TestPackV2RoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%60) + 1
		b := NewPackBuilderV2(uint32(rng.Intn(16)), int32(rng.Intn(1024)), MinRecordSize, 1<<20)
		want := make([]Event, count)
		var packs [][]byte
		for i := range want {
			want[i] = Event{
				Kind:   Kind(rng.Intn(int(kindCount)-1) + 1),
				Rank:   rng.Int31() - (1 << 30),
				Peer:   rng.Int31() - (1 << 30),
				Tag:    rng.Int31(),
				Comm:   rng.Uint32(),
				Ctx:    rng.Uint32(),
				Size:   rng.Int63() - (1 << 62),
				TStart: rng.Int63() - (1 << 62),
				TEnd:   rng.Int63() - (1 << 62),
			}
			if b.Add(&want[i]) {
				packs = append(packs, b.Take())
			}
		}
		if p := b.Take(); p != nil {
			packs = append(packs, p)
		}
		var got []Event
		for _, p := range packs {
			_, evs, err := DecodePack(p)
			if err != nil {
				t.Logf("decode: %v", err)
				return false
			}
			got = append(got, evs...)
		}
		if len(got) != count {
			t.Logf("decoded %d events, want %d", len(got), count)
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("event %d = %+v, want %+v", i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPackV2BoundariesMatchV1 pins the capacity contract: on delta-friendly
// input a v2 builder closes its packs at the same event counts as a v1
// builder of equal capacity, so flush cadence is format-independent.
func TestPackV2BoundariesMatchV1(t *testing.T) {
	const capBytes = 4096
	b1 := NewPackBuilder(0, 0, 64, capBytes)
	b2 := NewPackBuilderV2(0, 0, 64, capBytes)
	for i := 0; i < 500; i++ {
		ev := fig14ishEvent(i)
		f1, f2 := b1.Add(&ev), b2.Add(&ev)
		if f1 != f2 {
			t.Fatalf("event %d: v1 full=%v, v2 full=%v", i, f1, f2)
		}
		if f1 {
			p1, p2 := b1.Take(), b2.Take()
			h1, _, err1 := DecodePack(p1)
			h2, _, err2 := DecodePack(p2)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if h1.Count != h2.Count {
				t.Fatalf("pack counts differ: v1 %d, v2 %d", h1.Count, h2.Count)
			}
			if len(p2) > capBytes {
				t.Fatalf("v2 pack of %d bytes exceeds capacity %d", len(p2), capBytes)
			}
		}
	}
}

// TestPackV2NeverExceedsCapacity drives the builder with high-entropy
// events, where v2 encoding is larger than v1: the worst-case bound must
// still keep every encoded pack within capBytes (= the stream block size).
func TestPackV2NeverExceedsCapacity(t *testing.T) {
	const capBytes = 2048
	rng := rand.New(rand.NewSource(42))
	b := NewPackBuilderV2(0, 0, MinRecordSize, capBytes)
	for i := 0; i < 2000; i++ {
		ev := Event{
			Kind:   Kind(rng.Intn(int(kindCount)-1) + 1),
			Rank:   rng.Int31(),
			Peer:   rng.Int31(),
			Tag:    rng.Int31(),
			Comm:   rng.Uint32(),
			Ctx:    rng.Uint32(),
			Size:   rng.Int63() - (1 << 62),
			TStart: rng.Int63() - (1 << 62),
			TEnd:   rng.Int63() - (1 << 62),
		}
		if b.Add(&ev) {
			p := b.Take()
			if len(p) > capBytes {
				t.Fatalf("encoded pack of %d bytes exceeds capacity %d", len(p), capBytes)
			}
			if _, _, err := DecodePack(p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestPeekHeaderV1RejectsV2(t *testing.T) {
	b := NewPackBuilderV2(0, 0, 48, 1<<12)
	ev := fig14ishEvent(0)
	b.Add(&ev)
	buf := b.Take()
	if _, err := PeekHeader(buf); err != nil {
		t.Fatalf("version-aware PeekHeader rejected a v2 pack: %v", err)
	}
	_, err := PeekHeaderV1(buf)
	if err == nil {
		t.Fatal("PeekHeaderV1 accepted a v2 pack")
	}
	if !strings.Contains(err.Error(), "v2") || !strings.Contains(err.Error(), "only v1") {
		t.Fatalf("rejection should name both formats, got: %v", err)
	}
	// And v1 packs still pass.
	b1 := NewPackBuilder(0, 0, 48, 1<<12)
	b1.Add(&ev)
	if _, err := PeekHeaderV1(b1.Take()); err != nil {
		t.Fatalf("PeekHeaderV1 rejected a v1 pack: %v", err)
	}
}

// TestMixedVersionStream decodes an interleaved sequence of v1 and v2
// packs the way the analyzer does — per pack, dispatching on the header —
// and checks the merged event stream.
func TestMixedVersionStream(t *testing.T) {
	var packs [][]byte
	var want []Event
	for p := 0; p < 6; p++ {
		version := PackV1
		if p%2 == 1 {
			version = PackV2
		}
		b, err := NewBuilder(version, 1, int32(p), 64, 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			ev := fig14ishEvent(p*10 + i)
			want = append(want, ev)
			b.Add(&ev)
		}
		packs = append(packs, b.Take())
	}
	var got []Event
	var r StreamDecoder
	for p, buf := range packs {
		if err := r.Init(buf); err != nil {
			t.Fatalf("pack %d: %v", p, err)
		}
		wantVersion := PackV1 + p%2
		if r.Header().Version != wantVersion {
			t.Fatalf("pack %d decoded as v%d, want v%d", p, r.Header().Version, wantVersion)
		}
		for r.Next() {
			got = append(got, *r.Event())
		}
		if err := r.Err(); err != nil {
			t.Fatalf("pack %d: %v", p, err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestGoldenV1Bytes pins the v1 wire format byte for byte, independent of
// the builder implementation: the default (-packv2 off) path must stay
// byte-identical to the seed.
func TestGoldenV1Bytes(t *testing.T) {
	ev := Event{
		Kind: KindSend, Rank: 3, Peer: 4, Tag: 99, Comm: 7, Ctx: 42,
		Size: 1 << 20, TStart: 1000, TEnd: 1250,
	}
	b := NewPackBuilder(5, 3, 48, 1<<12)
	b.Add(&ev)
	got := b.Take()

	want := make([]byte, PackHeaderSize+48)
	binary.LittleEndian.PutUint32(want[0:], 0x544d5056) // "VPMT"
	binary.LittleEndian.PutUint32(want[4:], 5)          // appID
	binary.LittleEndian.PutUint32(want[8:], 3)          // srcRank
	binary.LittleEndian.PutUint32(want[12:], 1)         // count
	binary.LittleEndian.PutUint32(want[16:], 48)        // recordSize
	rec := want[PackHeaderSize:]
	rec[0] = byte(KindSend)
	binary.LittleEndian.PutUint32(rec[4:], 3)
	binary.LittleEndian.PutUint32(rec[8:], 4)
	binary.LittleEndian.PutUint32(rec[12:], 99)
	binary.LittleEndian.PutUint32(rec[16:], 7)
	binary.LittleEndian.PutUint32(rec[20:], 42)
	binary.LittleEndian.PutUint64(rec[24:], 1<<20)
	binary.LittleEndian.PutUint64(rec[32:], 1000)
	binary.LittleEndian.PutUint64(rec[40:], 1250)
	if !bytes.Equal(got, want) {
		t.Fatalf("v1 encoding drifted:\ngot  %x\nwant %x", got, want)
	}
}

// TestGoldenV2Header pins the v2 header layout (the body is covered by the
// round-trip tests; the header must stay fixed for cross-version readers).
func TestGoldenV2Header(t *testing.T) {
	ev := fig14ishEvent(0)
	b := NewPackBuilderV2(5, 3, 256, 1<<12)
	b.Add(&ev)
	got := b.Take()
	if magic := binary.LittleEndian.Uint32(got[0:]); magic != 0x324d5056 {
		t.Fatalf("magic = %#x, want 0x324d5056 (VPM2)", magic)
	}
	if appID := binary.LittleEndian.Uint32(got[4:]); appID != 5 {
		t.Fatalf("appID = %d", appID)
	}
	if rank := binary.LittleEndian.Uint32(got[8:]); rank != 3 {
		t.Fatalf("srcRank = %d", rank)
	}
	if count := binary.LittleEndian.Uint32(got[12:]); count != 1 {
		t.Fatalf("count = %d", count)
	}
	if rs := binary.LittleEndian.Uint32(got[16:]); rs != 256 {
		t.Fatalf("recordSize = %d", rs)
	}
	if bodyLen := binary.LittleEndian.Uint32(got[20:]); int(bodyLen) != len(got)-PackHeaderSize {
		t.Fatalf("bodyLen = %d, body is %d bytes", bodyLen, len(got)-PackHeaderSize)
	}
}

func TestNewBuilderVersions(t *testing.T) {
	for _, c := range []struct {
		version int
		want    int
	}{{0, PackV1}, {PackV1, PackV1}, {PackV2, PackV2}, {PackV3, PackV3}} {
		b, err := NewBuilder(c.version, 0, 0, 48, 1<<12)
		if err != nil {
			t.Fatalf("version %d: %v", c.version, err)
		}
		if b.Version() != c.want {
			t.Fatalf("NewBuilder(%d).Version() = %d, want %d", c.version, b.Version(), c.want)
		}
	}
	if _, err := NewBuilder(4, 0, 0, 48, 1<<12); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// TestPackReaderReuse checks that one decoder instance decodes v2 pack
// after v2 pack without leaking dictionary scratch or delta state between
// packs.
func TestPackReaderReuse(t *testing.T) {
	var r StreamDecoder
	for p := 0; p < 4; p++ {
		b := NewPackBuilderV2(0, int32(p), 48, 1<<12)
		want := make([]Event, 20)
		for i := range want {
			want[i] = fig14ishEvent(p*31 + i)
			b.Add(&want[i])
		}
		buf := b.Take()
		if err := r.Init(buf); err != nil {
			t.Fatal(err)
		}
		for i := 0; r.Next(); i++ {
			if *r.Event() != want[i] {
				t.Fatalf("pack %d event %d = %+v, want %+v", p, i, *r.Event(), want[i])
			}
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPackV2CorruptBody exercises the decoder's bounds checks on
// systematically corrupted bodies: every outcome must be a clean error,
// and the stateless entry must stop where the iterator stops.
func TestPackV2CorruptBody(t *testing.T) {
	b := NewPackBuilderV2(1, 2, 48, 1<<12)
	for i := 0; i < 30; i++ {
		ev := fig14ishEvent(i)
		b.Add(&ev)
	}
	clean := b.Take()
	decode := func(buf []byte) error {
		var r StreamDecoder
		n := 0
		if err := r.Init(buf); err == nil {
			for r.Next() {
				n++
			}
		}
		each := 0
		_, err := DecodeEach(buf, func(*Event) { each++ })
		if (err == nil) != (r.Err() == nil) || each != n {
			t.Fatalf("DecodeEach stopped after %d events with %v, Next after %d with %v", each, err, n, r.Err())
		}
		return r.Err()
	}
	if err := decode(clean); err != nil {
		t.Fatal(err)
	}
	// Truncations at every length must error, never panic or over-read.
	for n := 0; n < len(clean); n++ {
		if err := decode(clean[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	// Single-byte corruptions must never panic; errors are acceptable and
	// so are silent mis-decodes of value bytes (no integrity layer).
	for i := 0; i < len(clean); i++ {
		mut := append([]byte(nil), clean...)
		mut[i] ^= 0xFF
		_ = decode(mut)
	}
	// A dictionary index beyond the dictionary must error: find the dict
	// column and overwrite its first entry with a huge varint is fiddly, so
	// instead shrink Count to 1 with a dictLen claim above it.
	mut := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint32(mut[12:], 1) // count=1, dictLen stays >1
	if err := decode(mut); err == nil {
		t.Fatal("dictLen > count decoded without error")
	}
}

func BenchmarkPackEncodeV2(b *testing.B) {
	pb := NewPackBuilderV2(0, 0, 48, 1<<20)
	ev := fig14ishEvent(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pb.Add(&ev) {
			pb.Reset(pb.Take())
		}
	}
}

func BenchmarkPackReader(b *testing.B) {
	for _, bc := range []struct {
		name    string
		version int
	}{{"v1", PackV1}, {"v2", PackV2}} {
		b.Run(bc.name, func(b *testing.B) {
			pb, err := NewBuilder(bc.version, 0, 0, 48, 1<<20)
			if err != nil {
				b.Fatal(err)
			}
			var buf []byte
			for i := 0; i < 20000 && buf == nil; i++ {
				ev := fig14ishEvent(i)
				if pb.Add(&ev) {
					buf = pb.Take()
				}
			}
			if buf == nil {
				buf = pb.Take()
			}
			h, _ := PeekHeader(buf)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			var r StreamDecoder
			var sum int64
			for i := 0; i < b.N; i++ {
				if err := r.Init(buf); err != nil {
					b.Fatal(err)
				}
				for r.Next() {
					sum += r.Event().Size
				}
				if r.Err() != nil {
					b.Fatal(r.Err())
				}
			}
			_ = sum
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*h.Count), "ns/event")
		})
	}
}

// PeekHeaderV1 decodes a pack header accepting only the v1 wire format: a
// reader that has not negotiated v2 uses this so a v2 pack fails loudly
// instead of being misparsed.
func PeekHeaderV1(buf []byte) (Header, error) {
	h, err := PeekHeader(buf)
	if err != nil {
		return h, err
	}
	if h.Version != PackV1 {
		return Header{}, fmt.Errorf("trace: pack uses wire format v%d, this reader accepts only v1 (negotiate the stream format)", h.Version)
	}
	return h, nil
}
