package trace

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func sampleEvent(i int) Event {
	return Event{
		Kind:   KindSend,
		Rank:   int32(i),
		Peer:   int32(i + 1),
		Tag:    int32(100 + i),
		Comm:   7,
		Ctx:    42,
		Size:   int64(i) * 1000,
		TStart: int64(i) * 10,
		TEnd:   int64(i)*10 + 5,
	}
}

func TestPackRoundTrip(t *testing.T) {
	b := NewPackBuilder(3, 9, 64, 1<<16)
	const n = 100
	for i := 0; i < n; i++ {
		ev := sampleEvent(i)
		b.Add(&ev)
	}
	buf := b.Take()
	h, events, err := decodePack(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.AppID != 3 || h.SrcRank != 9 || h.Count != n || h.RecordSize != 64 {
		t.Fatalf("header = %+v", h)
	}
	for i, e := range events {
		want := sampleEvent(i)
		if e != want {
			t.Fatalf("event %d = %+v, want %+v", i, e, want)
		}
	}
}

func TestTakeResetsBuilder(t *testing.T) {
	b := NewPackBuilder(0, 0, 48, 1<<12)
	ev := sampleEvent(1)
	b.Add(&ev)
	first := b.Take()
	if first == nil {
		t.Fatal("expected a pack")
	}
	if b.Count() != 0 {
		t.Fatalf("count after Take = %d", b.Count())
	}
	if b.Take() != nil {
		t.Fatal("empty builder should Take nil")
	}
	ev2 := sampleEvent(2)
	b.Add(&ev2)
	second := b.Take()
	_, events, err := decodePack(second)
	if err != nil || len(events) != 1 || events[0].Rank != 2 {
		t.Fatalf("second pack wrong: %v %v", events, err)
	}
}

func TestAddReportsFull(t *testing.T) {
	// Pack sized for exactly 3 records.
	b := NewPackBuilder(0, 0, 48, PackHeaderSize+3*48)
	for i := 0; i < 2; i++ {
		ev := sampleEvent(i)
		if b.Add(&ev) {
			t.Fatalf("pack reported full after %d/3 records", i+1)
		}
	}
	ev := sampleEvent(2)
	if !b.Add(&ev) {
		t.Fatal("pack should report full at capacity")
	}
	if b.Len() != PackHeaderSize+3*48 {
		t.Fatalf("len = %d", b.Len())
	}
}

func TestRecordSizeClamped(t *testing.T) {
	b := NewPackBuilder(0, 0, 10, 8)
	if b.recordSize != MinRecordSize {
		t.Fatalf("record size = %d", b.recordSize)
	}
	ev := sampleEvent(0)
	b.Add(&ev) // must fit: packBytes raised to hold one record
	if buf := b.Take(); buf == nil {
		t.Fatal("pack with one record expected")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := PeekHeader([]byte{1, 2}); err == nil {
		t.Fatal("short buffer accepted")
	}
	bad := make([]byte, 64)
	if _, err := PeekHeader(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	b := NewPackBuilder(0, 0, 48, 1<<12)
	for i := 0; i < 5; i++ {
		ev := sampleEvent(i)
		b.Add(&ev)
	}
	buf := b.Take()
	if _, err := PeekHeader(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated pack accepted")
	}
}

// TestDecodeDispatchV1MatchesNext: a v1 pack's DecodeDispatch delivers
// the events the Init/Next iteration does, as many as its header counts.
func TestDecodeDispatchV1MatchesNext(t *testing.T) {
	b := NewPackBuilder(1, 2, 56, 1<<14)
	for i := 0; i < 37; i++ {
		ev := sampleEvent(i)
		b.Add(&ev)
	}
	buf := b.Take()
	var d StreamDecoder
	if err := d.Init(buf); err != nil {
		t.Fatal(err)
	}
	var want []Event
	for d.Next() {
		want = append(want, d.ev)
	}
	h, got, err := decodePack(buf)
	if err != nil || d.err != nil {
		t.Fatal(err, d.err)
	}
	if h.Count != len(want) || len(got) != len(want) {
		t.Fatalf("counts: header %d, got %d, want %d", h.Count, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d mismatch", i)
		}
	}
}

func TestKindClassification(t *testing.T) {
	cases := []struct {
		k                     Kind
		p2p, coll, wait, posx bool
	}{
		{KindSend, true, false, false, false},
		{KindIrecv, true, false, false, false},
		{KindSendrecv, true, false, false, false},
		{KindAllreduce, false, true, false, false},
		{KindBarrier, false, true, false, false},
		{KindWait, false, false, true, false},
		{KindWaitall, false, false, true, false},
		{KindPosixWrite, false, false, false, true},
		{KindInit, false, false, false, false},
	}
	for _, c := range cases {
		if c.k.IsP2P() != c.p2p || c.k.IsCollective() != c.coll || c.k.IsWait() != c.wait || c.k.IsPosix() != c.posx {
			t.Fatalf("classification wrong for %v", c.k)
		}
	}
	if !KindSend.IsOutgoingP2P() || KindRecv.IsOutgoingP2P() {
		t.Fatal("IsOutgoingP2P wrong")
	}
}

func TestKindNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kinds() {
		name := k.String()
		if seen[name] {
			t.Fatalf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
	for _, c := range []struct {
		k    Kind
		want string
	}{{KindInvalid, "invalid"}, {KindPosixClose, "close"}, {kindCount, "Kind(22)"}, {200, "Kind(200)"}, {255, "Kind(255)"}} {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(c.k), got, c.want)
		}
	}
	var name string
	if n := testing.AllocsPerRun(10, func() { name = Kind(200).String() }); n != 0 || name != "Kind(200)" {
		t.Errorf("spelling an unnamed kind allocates %v", n)
	}
}

// Property: encode/decode round-trips arbitrary events through arbitrary
// record sizes.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, recPad uint8, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recordSize := MinRecordSize + int(recPad)
		count := int(n%50) + 1
		b := NewPackBuilder(uint32(rng.Intn(16)), int32(rng.Intn(1024)), recordSize, 1<<20)
		want := make([]Event, count)
		for i := range want {
			want[i] = Event{
				Kind:   Kind(rng.Intn(int(kindCount)-1) + 1),
				Rank:   rng.Int31(),
				Peer:   rng.Int31() - (1 << 30),
				Tag:    rng.Int31(),
				Comm:   rng.Uint32(),
				Ctx:    rng.Uint32(),
				Size:   rng.Int63(),
				TStart: rng.Int63(),
				TEnd:   rng.Int63(),
			}
			b.Add(&want[i])
		}
		buf := b.Take()
		h, got, err := decodePack(buf)
		if err != nil || h.Count != count || h.RecordSize != recordSize {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEventDuration(t *testing.T) {
	e := Event{TStart: 100, TEnd: 175}
	if e.Duration() != 75 {
		t.Fatalf("duration = %d", e.Duration())
	}
}

func BenchmarkPackAdd(b *testing.B) {
	pb := NewPackBuilder(0, 0, 48, 1<<20)
	ev := sampleEvent(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pb.Add(&ev) {
			pb.Take()
		}
	}
}

func BenchmarkDecodeDispatchV1(b *testing.B) {
	pb := NewPackBuilder(0, 0, 48, 1<<20)
	for i := 0; i < 20000; i++ {
		ev := sampleEvent(i)
		if pb.Add(&ev) {
			break
		}
	}
	buf := pb.Take()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	var d StreamDecoder
	for i := 0; i < b.N; i++ {
		var sum int64
		if _, err := d.DecodeDispatch(buf, func(e *Event) { sum += e.Size }); err != nil {
			b.Fatal(err)
		}
	}
}

// decodePack is a decode with no history into a slice: the pack's header
// and events, through a fresh StreamDecoder that refuses a v3 pack (which
// needs its writer's earlier packs). The decoder differential holds the
// stream decoder to it.
func decodePack(buf []byte) (Header, []Event, error) {
	h, err := PeekHeader(buf)
	if err != nil {
		return Header{}, nil, err
	}
	if h.Version == PackV3 {
		return h, nil, fmt.Errorf("trace: v3 pack requires a per-writer StreamDecoder, not a stateless decode")
	}
	var d StreamDecoder
	var events []Event
	if _, err := d.DecodeDispatch(buf, func(e *Event) { events = append(events, *e) }); err != nil {
		return h, nil, err
	}
	return h, events, nil
}
