package trace

import (
	"testing"
)

// TestBuilderAccessors pins the introspection surface all three builders
// share (cmd tools and the exp harnesses size buffers off it), and that a
// column pack is smaller than the v1 records it stands in for.
func TestBuilderAccessors(t *testing.T) {
	ev := Event{Kind: KindSend, Rank: 0, Peer: 1, Size: 64, TStart: 1, TEnd: 2}

	v1 := NewPackBuilder(1, 0, MinRecordSize, 1<<12)
	v1.Add(&ev)
	if v1.CapBytes() != PackHeaderSize+(1<<12-PackHeaderSize)/MinRecordSize*MinRecordSize || v1.Count() != 1 {
		t.Fatalf("v1 accessors: cap=%d count=%d", v1.CapBytes(), v1.Count())
	}
	if v1.Len() != PackHeaderSize+MinRecordSize {
		t.Fatalf("v1 len = %d", v1.Len())
	}

	for version, b := range map[int]*ColumnBuilder{
		PackV2: NewPackBuilderV2(1, 0, MinRecordSize, 1<<12),
		PackV3: NewPackBuilderV3(1, 0, MinRecordSize, 1<<12),
	} {
		b.Add(&ev)
		if b.CapBytes() != 1<<12 || b.Count() != 1 || b.version != version {
			t.Fatalf("v%d accessors: cap=%d count=%d version=%d", version, b.CapBytes(), b.Count(), b.version)
		}
		if n, logical := b.encodedLen(), PackHeaderSize+b.count*b.recordSize; n <= PackHeaderSize || n >= logical {
			t.Fatalf("v%d len = %d, logical %d", version, n, logical)
		}
	}
}

// TestStreamDecoderResetStream: a stream that starts over gets a fresh
// decoder (Decoders.For), which has no dictionary, so resuming mid-stream
// there must fail with a gap rather than decode against nothing.
func TestStreamDecoderResetStream(t *testing.T) {
	b := NewPackBuilderV3(1, 0, MinRecordSize, 1<<16)
	for i := 0; i < 10; i++ {
		ev := Event{Kind: KindSend, Rank: 0, Peer: 1, Ctx: uint32(i), Size: 8, TStart: int64(i), TEnd: int64(i) + 1}
		b.Add(&ev)
	}
	first := b.Take()
	for i := 10; i < 20; i++ {
		ev := Event{Kind: KindSend, Rank: 0, Peer: 1, Ctx: uint32(i), Size: 8, TStart: int64(i), TEnd: int64(i) + 1}
		b.Add(&ev)
	}
	second := b.Take()

	ds := Decoders{}
	if _, err := ds.For(0).DecodeDispatch(first, func(*Event) {}); err != nil {
		t.Fatal(err)
	}
	if len(ds.For(0).dict) == 0 {
		t.Fatal("dictionary empty after first pack")
	}
	delete(ds, 0) // the writer's stream restarts
	if len(ds.For(0).dict) != 0 {
		t.Fatalf("a restarted stream's decoder holds %d dictionary entries", len(ds.For(0).dict))
	}
	if _, err := ds.For(0).DecodeDispatch(second, func(*Event) {}); err == nil {
		t.Fatal("continuation pack decoded against an empty dictionary")
	}
}

// TestAuditPackRoundTrip covers the shed-ledger wire format in its home
// package: zero-shed classes are elided, nil when nothing shed, the
// decode rejects non-audit packs, and the event decodes refuse an audit
// pack (its 20-byte entries are not event records).
func TestAuditPackRoundTrip(t *testing.T) {
	if buf := EncodeAuditPack(1, 2, []AuditEntry{{Kind: KindSend, Kept: 50}}); buf != nil {
		t.Fatal("ledger with nothing shed must encode to nil")
	}
	in := []AuditEntry{
		{Kind: KindSend, Shed: 3, Kept: 97},
		{Kind: KindRecv, Shed: 0, Kept: 100}, // elided
		{Kind: KindBarrier, Shed: 7, Kept: 0},
	}
	buf := EncodeAuditPack(9, 4, in)
	h, out, err := DecodeAuditPack(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != PackAudit || h.AppID != 9 || h.SrcRank != 4 {
		t.Fatalf("header = %+v", h)
	}
	want := []AuditEntry{in[0], in[2]}
	if len(out) != len(want) {
		t.Fatalf("entries = %d, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, out[i], want[i])
		}
	}

	v2 := NewPackBuilderV2(9, 4, MinRecordSize, 1<<12)
	ev := Event{Kind: KindSend, Rank: 0, Peer: 1, Size: 8, TStart: 0, TEnd: 1}
	v2.Add(&ev)
	if _, _, err := DecodeAuditPack(v2.Take()); err == nil {
		t.Fatal("v2 pack accepted as an audit pack")
	}
	var d StreamDecoder
	if _, err := d.DecodeDispatch(buf, func(*Event) { t.Fatal("audit entry delivered as an event") }); err == nil {
		t.Fatal("DecodeDispatch accepted an audit pack")
	}
	if _, _, err := decodePack(buf); err == nil {
		t.Fatal("decodePack accepted an audit pack")
	}
}
