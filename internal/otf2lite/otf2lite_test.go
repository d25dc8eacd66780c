package otf2lite

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func sample(n int) []trace.Event {
	rng := rand.New(rand.NewSource(7))
	out := make([]trace.Event, n)
	t := make(map[int32]int64)
	for i := range out {
		rank := int32(rng.Intn(8))
		t[rank] += int64(rng.Intn(1000) + 1)
		out[i] = trace.Event{
			Kind: trace.KindSend, Rank: rank, Peer: (rank + 1) % 8,
			Tag: int32(rng.Intn(4)), Comm: 1, Ctx: uint32(rng.Intn(3)),
			Size: int64(rng.Intn(1 << 16)), TStart: t[rank], TEnd: t[rank] + int64(rng.Intn(500)),
		}
		if i%5 == 0 {
			out[i].Kind = trace.KindAllreduce
			out[i].Peer = -1
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	want := sample(500)
	for i := range want {
		w.Add(&want[i])
	}
	var buf bytes.Buffer
	if err := w.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	var got []trace.Event
	arch, err := Read(&buf, func(e *trace.Event) { got = append(got, *e) })
	if err != nil {
		t.Fatal(err)
	}
	if arch.Events != len(want) || len(got) != len(want) {
		t.Fatalf("events = %d / %d", arch.Events, len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if len(arch.Kinds) != 2 || len(arch.Ranks) != 8 {
		t.Fatalf("definitions: %d kinds, %d ranks", len(arch.Kinds), len(arch.Ranks))
	}
	// Region names are interned call names.
	found := false
	for _, n := range arch.Names {
		if n == "MPI_Send" {
			found = true
		}
	}
	if !found {
		t.Fatalf("names = %v", arch.Names)
	}
}

func TestDefinitionsOnlyRead(t *testing.T) {
	w := NewWriter()
	ev := trace.Event{Kind: trace.KindBarrier, Rank: 3}
	w.Add(&ev)
	var buf bytes.Buffer
	if err := w.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	arch, err := Read(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Events != 1 || arch.Ranks[0] != 3 {
		t.Fatalf("arch = %+v", arch)
	}
}

func TestWriterReusableAfterFinish(t *testing.T) {
	w := NewWriter()
	ev := trace.Event{Kind: trace.KindSend, Rank: 0, TStart: 5, TEnd: 6}
	w.Add(&ev)
	var a bytes.Buffer
	if err := w.Finish(&a); err != nil {
		t.Fatal(err)
	}
	if len(w.events) != 0 {
		t.Fatalf("count after finish = %d", len(w.events))
	}
	ev2 := trace.Event{Kind: trace.KindRecv, Rank: 1, TStart: 9, TEnd: 12}
	w.Add(&ev2)
	var b bytes.Buffer
	if err := w.Finish(&b); err != nil {
		t.Fatal(err)
	}
	var got []trace.Event
	if _, err := Read(&b, func(e *trace.Event) { got = append(got, *e) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Kind != trace.KindRecv {
		t.Fatalf("second archive = %+v", got)
	}
}

func TestCorruptArchivesRejected(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("short")), nil); err == nil {
		t.Fatal("short magic accepted")
	}
	if _, err := Read(bytes.NewReader([]byte("NOTMAGIC....")), nil); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncate a valid archive.
	w := NewWriter()
	for i := 0; i < 50; i++ {
		ev := trace.Event{Kind: trace.KindSend, Rank: int32(i % 4), TStart: int64(i), TEnd: int64(i + 1)}
		w.Add(&ev)
	}
	var buf bytes.Buffer
	if err := w.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := Read(bytes.NewReader(full[:len(full)/2]), func(*trace.Event) {}); err == nil {
		t.Fatal("truncated archive accepted")
	}
}

func TestSortImprovesCompression(t *testing.T) {
	evs := sample(5000)
	size := func(sorted bool) int {
		w := NewWriter()
		for i := range evs {
			w.Add(&evs[i])
		}
		if sorted {
			w.Sort()
		}
		var buf bytes.Buffer
		if err := w.Finish(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	unsorted, sorted := size(false), size(true)
	if sorted > unsorted {
		t.Fatalf("location-sorted layout should not be larger: %d vs %d", sorted, unsorted)
	}
}

func TestCompressionBeatsFlatRecords(t *testing.T) {
	evs := sample(5000)
	w := NewWriter()
	for i := range evs {
		w.Add(&evs[i])
	}
	var buf bytes.Buffer
	if err := w.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	flat := len(evs) * trace.MinRecordSize
	if buf.Len() >= flat {
		t.Fatalf("structured archive (%d B) should undercut flat records (%d B)", buf.Len(), flat)
	}
	t.Logf("compression: %.2f bytes/event vs %d flat", float64(buf.Len())/float64(len(evs)), trace.MinRecordSize)
}

// Property: arbitrary event sequences round-trip exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%100) + 1
		w := NewWriter()
		want := make([]trace.Event, count)
		for i := range want {
			want[i] = trace.Event{
				Kind: trace.Kind(rng.Intn(20) + 1), Rank: int32(rng.Intn(64)),
				Peer: int32(rng.Intn(66) - 1), Tag: int32(rng.Intn(1 << 16)),
				Comm: rng.Uint32() % 16, Ctx: rng.Uint32() % 256,
				Size: rng.Int63() % (1 << 30), TStart: rng.Int63() % (1 << 40),
			}
			want[i].TEnd = want[i].TStart + rng.Int63()%(1<<20)
			w.Add(&want[i])
		}
		var buf bytes.Buffer
		if err := w.Finish(&buf); err != nil {
			return false
		}
		var got []trace.Event
		if _, err := Read(&buf, func(e *trace.Event) { got = append(got, *e) }); err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteArchive(b *testing.B) {
	evs := sample(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter()
		for j := range evs {
			w.Add(&evs[j])
		}
		var buf bytes.Buffer
		if err := w.Finish(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}
