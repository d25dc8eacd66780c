package trace

import (
	"testing"
)

// TestBuilderAccessors pins the introspection surface all three builders
// share (cmd tools and the exp harnesses size buffers off it).
func TestBuilderAccessors(t *testing.T) {
	ev := Event{Kind: KindSend, Rank: 0, Peer: 1, Size: 64, TStart: 1, TEnd: 2}

	v1 := NewPackBuilder(1, 0, MinRecordSize, 1<<12)
	v1.Add(&ev)
	if v1.CapBytes() != 1<<12 || v1.RecordSize() != MinRecordSize || v1.Count() != 1 {
		t.Fatalf("v1 accessors: cap=%d rec=%d count=%d", v1.CapBytes(), v1.RecordSize(), v1.Count())
	}
	if v1.Len() != PackHeaderSize+MinRecordSize {
		t.Fatalf("v1 len = %d", v1.Len())
	}

	v2 := NewPackBuilderV2(1, 0, MinRecordSize, 1<<12)
	v2.Add(&ev)
	if v2.CapBytes() != 1<<12 || v2.RecordSize() != MinRecordSize || v2.Count() != 1 {
		t.Fatalf("v2 accessors: cap=%d rec=%d count=%d", v2.CapBytes(), v2.RecordSize(), v2.Count())
	}
	if v2.Len() <= PackHeaderSize || v2.Len() >= v2.LogicalLen() {
		t.Fatalf("v2 len = %d, logical %d", v2.Len(), v2.LogicalLen())
	}

	v3 := NewPackBuilderV3(1, 0, MinRecordSize, 1<<12)
	v3.Add(&ev)
	if v3.CapBytes() != 1<<12 || v3.RecordSize() != MinRecordSize || v3.Count() != 1 {
		t.Fatalf("v3 accessors: cap=%d rec=%d count=%d", v3.CapBytes(), v3.RecordSize(), v3.Count())
	}
	if v3.Len() <= PackHeaderSize || v3.Len() >= v3.LogicalLen() {
		t.Fatalf("v3 len = %d, logical %d", v3.Len(), v3.LogicalLen())
	}

	for v, b := range map[int]Builder{PackV1: v1, PackV2: v2, PackV3: v3} {
		if b.Version() != v {
			t.Fatalf("builder reports v%d, want v%d", b.Version(), v)
		}
	}
}

// TestStreamDecoderResetStream: an explicit reset forgets the persistent
// dictionary, so resuming mid-stream must fail with a gap (the caller is
// declaring "this is a new stream", not "skip ahead").
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

	var d StreamDecoder
	if _, err := d.DecodeDispatch(first, func(*Event) {}); err != nil {
		t.Fatal(err)
	}
	if d.DictLen() == 0 {
		t.Fatal("dictionary empty after first pack")
	}
	d.ResetStream()
	if d.DictLen() != 0 {
		t.Fatalf("dictionary survived ResetStream: %d entries", d.DictLen())
	}
	if _, err := d.DecodeDispatch(second, func(*Event) {}); err == nil {
		t.Fatal("continuation pack decoded against a reset dictionary")
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
	if _, err := DecodeEach(buf, func(*Event) { t.Fatal("audit entry delivered as an event") }); err == nil {
		t.Fatal("DecodeEach accepted an audit pack")
	}
	if _, _, err := DecodePack(buf); err == nil {
		t.Fatal("DecodePack accepted an audit pack")
	}
}
