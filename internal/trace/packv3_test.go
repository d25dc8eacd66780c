package trace

import (
	"encoding/binary"
	"strings"
	"testing"
)

// takePacksV3 drains n events through a v3 builder, collecting every
// finalized pack plus the tail pack.
func takePacksV3(b *ColumnBuilder, events []Event) [][]byte {
	var packs [][]byte
	for i := range events {
		if b.Add(&events[i]) {
			packs = append(packs, b.Take())
		}
	}
	if p := b.Take(); p != nil {
		packs = append(packs, p)
	}
	return packs
}

// decodeStream runs every pack through one StreamDecoder in order and
// returns the decoded events.
func decodeStream(t *testing.T, d *StreamDecoder, packs [][]byte) []Event {
	t.Helper()
	var got []Event
	for pi, p := range packs {
		if err := d.Init(p); err != nil {
			t.Fatalf("pack %d: Init: %v", pi, err)
		}
		for d.Next() {
			got = append(got, *d.Event())
		}
		if err := d.Err(); err != nil {
			t.Fatalf("pack %d: %v", pi, err)
		}
	}
	return got
}

// TestPackV3RoundTripMultiPack is the core contract: a multi-pack stream
// round-trips exactly through the persistent-dictionary decoder, and
// after the first pack the dictionary delta sections are empty — the
// stream dictionary is shipped once, not per pack.
func TestPackV3RoundTripMultiPack(t *testing.T) {
	b := NewPackBuilderV3(7, 3, 48, 1<<10)
	events := make([]Event, 500)
	for i := range events {
		events[i] = fig14ishEvent(i)
	}
	packs := takePacksV3(b, events)
	if len(packs) < 3 {
		t.Fatalf("want a multi-pack stream, got %d packs", len(packs))
	}
	var d StreamDecoder
	got := decodeStream(t, &d, packs)
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
	// The Fig14-ish workload cycles a bounded set of call sites, so every
	// pack after the first should introduce zero dictionary entries: its
	// delta section is exactly the two prefix varints.
	for pi, p := range packs[1:] {
		pos := PackHeaderSize
		base, n := binary.Uvarint(p[pos:])
		pos += n
		adds, _ := binary.Uvarint(p[pos:])
		if base == 0 {
			t.Fatalf("pack %d: dictionary base 0 mid-stream", pi+1)
		}
		if adds != 0 {
			t.Fatalf("pack %d: %d dictionary additions on a steady workload, want 0", pi+1, adds)
		}
	}
	if d.DictLen() != b.DictLen() {
		t.Fatalf("decoder dictionary has %d entries, builder %d", d.DictLen(), b.DictLen())
	}
}

// TestPackV3BeatsV2OnSteadyStream pins the reason v3 exists: on a
// multi-pack stream of recurring call sites, v3's total wire volume is
// strictly below v2's, because v2 re-ships the dictionary in every pack.
// It also pins the flip side documented in DESIGN §13: on a single-pack
// stream v3 is the larger format (same dictionary plus two prefix
// bytes), so short streams should stay on v2.
func TestPackV3BeatsV2OnSteadyStream(t *testing.T) {
	events := make([]Event, 2000)
	for i := range events {
		events[i] = fig14ishEvent(i)
	}
	wire := func(version int) int {
		b, err := NewBuilder(version, 1, 0, 48, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i := range events {
			if b.Add(&events[i]) {
				total += len(b.Take())
				b.Reset(nil)
			}
		}
		total += len(b.Take())
		return total
	}
	v2, v3 := wire(PackV2), wire(PackV3)
	if v3 >= v2 {
		t.Fatalf("v3 stream is %d bytes, v2 is %d — the persistent dictionary should win on a long stream", v3, v2)
	}

	// Single pack: v3 carries the same delta entries as v2's dictionary
	// plus the base prefix, so it must be (slightly) larger.
	single := func(version int) int {
		b, err := NewBuilder(version, 1, 0, 48, 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			ev := fig14ishEvent(i)
			b.Add(&ev)
		}
		return len(b.Take())
	}
	if s2, s3 := single(PackV2), single(PackV3); s3 <= s2 {
		t.Fatalf("single v3 pack is %d bytes, v2 is %d — expected v3 to pay the prefix overhead", s3, s2)
	}
}

// TestStreamDecoderRestart checks the dictBase==0 resynchronization: a
// writer that starts a fresh builder mid-stream (the recorder does this
// on every format switch) resets the decoder's dictionary instead of
// tripping the gap check.
func TestStreamDecoderRestart(t *testing.T) {
	events := make([]Event, 200)
	for i := range events {
		events[i] = fig14ishEvent(i)
	}
	b1 := NewPackBuilderV3(1, 0, 48, 1<<10)
	first := takePacksV3(b1, events)
	b2 := NewPackBuilderV3(1, 0, 48, 1<<10)
	second := takePacksV3(b2, events)

	var d StreamDecoder
	got := decodeStream(t, &d, append(first, second...))
	if len(got) != 2*len(events) {
		t.Fatalf("decoded %d events across the restart, want %d", len(got), 2*len(events))
	}
	for i := range got {
		if got[i] != events[i%len(events)] {
			t.Fatalf("event %d mismatched after restart", i)
		}
	}
}

// TestStreamDecoderGap checks loss detection: dropping a pack that
// introduced dictionary entries must fail loudly with a dictionary-gap
// error, not fold events under the wrong call sites.
func TestStreamDecoderGap(t *testing.T) {
	b := NewPackBuilderV3(1, 0, 48, 1<<10)
	// Give every pack fresh dictionary entries so any dropped pack leaves
	// a detectable hole.
	var events []Event
	for i := 0; i < 300; i++ {
		ev := fig14ishEvent(i)
		ev.Ctx = uint32(i)
		events = append(events, ev)
	}
	packs := takePacksV3(b, events)
	if len(packs) < 3 {
		t.Fatalf("need >= 3 packs, got %d", len(packs))
	}
	var d StreamDecoder
	if err := d.Init(packs[0]); err != nil {
		t.Fatal(err)
	}
	for d.Next() {
	}
	err := d.Init(packs[2]) // pack 1 lost
	if err == nil || !strings.Contains(err.Error(), "dictionary gap") {
		t.Fatalf("decoding past a lost pack: err = %v, want a dictionary-gap error", err)
	}
}

// TestStreamDecoderMixedFormats checks that one per-writer decoder
// handles a stream whose format switches mid-run (the adaptive
// controller's actuation ladder does exactly this): v1 and v2 packs are
// self-contained and must not disturb the persistent v3 dictionary.
func TestStreamDecoderMixedFormats(t *testing.T) {
	events := make([]Event, 120)
	for i := range events {
		events[i] = fig14ishEvent(i)
	}
	b3 := NewPackBuilderV3(1, 0, 48, 1<<10)
	v3packs := takePacksV3(b3, events)
	if len(v3packs) < 2 {
		t.Fatalf("need >= 2 v3 packs, got %d", len(v3packs))
	}
	b2 := NewPackBuilderV2(1, 0, 48, 1<<12)
	for i := range events[:40] {
		b2.Add(&events[i])
	}
	v2pack := b2.Take()
	b1 := NewPackBuilder(1, 0, 48, 1<<12)
	for i := range events[:10] {
		b1.Add(&events[i])
	}
	v1pack := b1.Take()

	// v3, then v2 and v1 interleaved, then the REST of the v3 stream:
	// the later v3 packs decode only if the persistent dictionary
	// survived the interleaving untouched.
	stream := [][]byte{v3packs[0], v2pack, v1pack}
	stream = append(stream, v3packs[1:]...)
	var d StreamDecoder
	got := decodeStream(t, &d, stream)
	want := len(events) + 40 + 10
	if len(got) != want {
		t.Fatalf("decoded %d events, want %d", len(got), want)
	}
}

// TestStreamDecoderHostileDeltas hand-crafts malformed v3 packs; every
// one must produce an error, never a panic or silent misdecode.
func TestStreamDecoderHostileDeltas(t *testing.T) {
	b := NewPackBuilderV3(1, 0, 48, 1<<12)
	for i := 0; i < 20; i++ {
		ev := fig14ishEvent(i)
		b.Add(&ev)
	}
	good := b.Take()

	mutate := func(f func(p []byte) []byte) []byte {
		p := append([]byte(nil), good...)
		p = f(p)
		binary.LittleEndian.PutUint32(p[20:], uint32(len(p)-PackHeaderSize))
		return p
	}

	cases := map[string][]byte{
		// dictAdd > Count violates the one-reference-per-entry bound.
		"dictAdd above count": mutate(func(p []byte) []byte {
			out := append([]byte(nil), p[:PackHeaderSize]...)
			_, n := binary.Uvarint(p[PackHeaderSize:]) // base
			out = append(out, p[PackHeaderSize:PackHeaderSize+n]...)
			rest := p[PackHeaderSize+n:]
			_, n2 := binary.Uvarint(rest)
			out = binary.AppendUvarint(out, 1<<30)
			return append(out, rest[n2:]...)
		}),
		// A dictionary base far past the stream state is a gap.
		"dictionary gap": mutate(func(p []byte) []byte {
			out := append([]byte(nil), p[:PackHeaderSize]...)
			rest := p[PackHeaderSize:]
			_, n := binary.Uvarint(rest)
			out = binary.AppendUvarint(out, 999)
			return append(out, rest[n:]...)
		}),
		// Truncated mid-dictionary.
		"truncated dictionary": mutate(func(p []byte) []byte {
			return p[:PackHeaderSize+3]
		}),
	}
	for name, pack := range cases {
		var d StreamDecoder
		if err := d.Init(pack); err == nil {
			for d.Next() {
			}
			if d.Err() == nil {
				t.Errorf("%s: decoded without error", name)
			}
		}
		if d.DictLen() != 0 {
			t.Errorf("%s: hostile pack grew the stream dictionary to %d entries", name, d.DictLen())
		}
	}

	// Out-of-range dictionary index in column 0: corrupt the column
	// bytes directly and verify Next fails (decoded on a warm decoder so
	// the persistent dictionary bound is live).
	var d StreamDecoder
	if err := d.Init(good); err != nil {
		t.Fatal(err)
	}
	for d.Next() {
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

// TestPackReaderRejectsV3 pins the ordering guard: the stateless entries
// refuse v3 packs — the stream opener a fresh decoder could read, and a
// follow-up — so they cannot be misdecoded on a path (like the
// blackboard's worker pool) that does not preserve per-writer order.
func TestPackReaderRejectsV3(t *testing.T) {
	b := NewPackBuilderV3(1, 0, 48, 1<<12)
	ev := fig14ishEvent(0)
	b.Add(&ev)
	opener := append([]byte(nil), b.Take()...)
	b.Add(&ev)
	for _, pack := range [][]byte{opener, b.Take()} {
		n := 0
		if _, err := DecodeEach(pack, func(*Event) { n++ }); err == nil || n != 0 || !strings.Contains(err.Error(), "StreamDecoder") {
			t.Fatalf("DecodeEach(v3) = %v after %d events, want a StreamDecoder redirect error before the first", err, n)
		}
		if _, _, err := DecodePack(pack); err == nil {
			t.Fatal("DecodePack accepted a v3 pack")
		}
	}
}

// TestPackBuilderV3DiscardRollsBack checks Reset-without-Take: a
// discarded pack's dictionary delta must be rolled back, or the next
// shipped pack would reference entries the decoder never saw.
func TestPackBuilderV3DiscardRollsBack(t *testing.T) {
	b := NewPackBuilderV3(1, 0, 48, 1<<12)
	ev := fig14ishEvent(0)
	b.Add(&ev)
	first := append([]byte(nil), b.Take()...)

	// Build a pack with a brand-new call site, then discard it.
	novel := fig14ishEvent(1)
	novel.Ctx = 0xBEEF
	b.Add(&novel)
	b.Reset(nil)

	// The next pack re-introduces the same call site; if the rollback
	// leaked, the entry would be treated as already shipped and the
	// decoder would fail or misresolve.
	b.Add(&novel)
	second := b.Take()

	var d StreamDecoder
	got := decodeStream(t, &d, [][]byte{first, second})
	if len(got) != 2 {
		t.Fatalf("decoded %d events, want 2", len(got))
	}
	if got[1] != novel {
		t.Fatalf("post-discard event decoded as %+v, want %+v", got[1], novel)
	}
}

// TestStreamDecoderDispatch checks the fused path end to end: the same
// events, the same order, one callback per event, count returned.
func TestStreamDecoderDispatch(t *testing.T) {
	b := NewPackBuilderV3(1, 0, 48, 1<<10)
	events := make([]Event, 300)
	for i := range events {
		events[i] = fig14ishEvent(i)
	}
	packs := takePacksV3(b, events)
	var d StreamDecoder
	var got []Event
	total := 0
	for _, p := range packs {
		n, err := d.DecodeDispatch(p, func(e *Event) { got = append(got, *e) })
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != len(events) || len(got) != len(events) {
		t.Fatalf("dispatched %d events (returned %d), want %d", len(got), total, len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

// ingestishEvent is event i of one rank cycling seven call sites the way
// the engine benchmark's ingest corpus does: two exchanges (isend, irecv,
// wait) with two peers and an allreduce, 8–32 KiB payloads and stamps
// about 1.5 µs apart with jitter. Its size deltas take three varint bytes,
// its stamp and duration deltas mostly two.
func ingestishEvent(i int) Event {
	r := uint64(i+1) * 0x9e3779b97f4a7c15
	r ^= r >> 31
	slot := i % 7
	kinds := [...]Kind{KindIsend, KindIrecv, KindWait, KindIsend, KindIrecv, KindWait, KindAllreduce}
	ev := Event{Kind: kinds[slot], Rank: 5, Peer: -1, Tag: -1, Comm: 1, Ctx: uint32(10 + slot), Size: 2048}
	if slot < 6 {
		ev.Peer, ev.Tag = 5^int32(1+slot/3), int32(100+i/7%4)
		ev.Size = int64(8192 << (r >> 40 % 3))
	}
	ev.TStart = int64(i)*1500 + int64(r%300)
	ev.TEnd = ev.TStart + 600 + int64(r>>20%500)
	return ev
}

// ingestishPacks encodes n events of ingestishEvent as a v3 stream of
// 256-event packs of 256-byte logical records.
func ingestishPacks(n int) [][]byte {
	events := make([]Event, n)
	for i := range events {
		events[i] = ingestishEvent(i)
	}
	return takePacksV3(NewPackBuilderV3(1, 5, 256, PackHeaderSize+256*256), events)
}

func BenchmarkPackEncodeV3(b *testing.B) {
	pb := NewPackBuilderV3(1, 5, 256, PackHeaderSize+256*256)
	events := make([]Event, 7*1024)
	for i := range events {
		events[i] = ingestishEvent(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pb.Add(&events[i%len(events)]) {
			pb.Reset(pb.Take())
		}
	}
}

// BenchmarkDecodeDispatchV3 times the fused decode loop over a 64-pack v3
// stream, one decoder carrying the stream dictionary across packs.
func BenchmarkDecodeDispatchV3(b *testing.B) {
	packs := ingestishPacks(64 * 256)
	var d StreamDecoder
	var sum int64
	fold := func(e *Event) { sum += e.Size }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range packs {
			if _, err := d.DecodeDispatch(p, fold); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64*256), "ns/event")
}
