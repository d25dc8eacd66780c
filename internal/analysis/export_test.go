package analysis

import (
	"fmt"
	"testing"

	"repro/internal/blackboard"
	"repro/internal/trace"
)

// drainPacks drains the module's selected trace as consecutive packs, the
// stream readExported replays.
func drainPacks(m *ExportModule) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []byte
	for _, c := range append(m.chunks, m.builder.Take()) {
		out = append(out, c...)
	}
	m.chunks = nil
	return out
}

// readExported decodes a stream of consecutive packs, invoking fn per
// event and stepping over each pack by its encoded length.
func readExported(buf []byte, fn func(*trace.Event)) error {
	for off := 0; off < len(buf); {
		h, err := trace.DecodeEach(buf[off:], fn)
		if err != nil {
			return fmt.Errorf("analysis: corrupt export at offset %d: %w", off, err)
		}
		off += h.WireLen()
	}
	return nil
}

func TestExportModuleFilterAndRoundTrip(t *testing.T) {
	m := NewExportModule(0, func(e *trace.Event) bool { return e.Kind == trace.KindSend })
	for i := 0; i < 100; i++ {
		k := trace.KindSend
		if i%2 == 1 {
			k = trace.KindBarrier
		}
		m.Add(&trace.Event{Kind: k, Rank: int32(i), Size: int64(i)})
	}
	if m.Exported() != 50 || m.Dropped() != 50 {
		t.Fatalf("exported=%d dropped=%d", m.Exported(), m.Dropped())
	}
	var got []trace.Event
	if err := readExported(drainPacks(m), func(e *trace.Event) { got = append(got, *e) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("replayed %d events", len(got))
	}
	for _, e := range got {
		if e.Kind != trace.KindSend || e.Rank%2 != 0 {
			t.Fatalf("unexpected event in export: %+v", e)
		}
	}
	// After a drain the module keeps working.
	m.Add(&trace.Event{Kind: trace.KindSend})
	var more int
	if err := readExported(drainPacks(m), func(*trace.Event) { more++ }); err != nil {
		t.Fatal(err)
	}
	if more != 1 {
		t.Fatalf("second export = %d events", more)
	}
}

func TestExportSpansMultipleChunks(t *testing.T) {
	m := NewExportModule(7, nil)
	const n = 5000 // > one 64 KB chunk of 48-byte records
	for i := 0; i < n; i++ {
		m.Add(&trace.Event{Kind: trace.KindRecv, Rank: int32(i)})
	}
	count := 0
	if err := readExported(drainPacks(m), func(*trace.Event) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("replayed %d of %d", count, n)
	}
}

func TestReadExportedRejectsGarbage(t *testing.T) {
	if err := readExported([]byte{1, 2, 3, 4, 5}, func(*trace.Event) {}); err == nil {
		t.Fatal("garbage accepted")
	}
	// A well-formed audit pack passes the header check but holds ledger
	// entries, not event records: an error, not a misread.
	audit := trace.EncodeAuditPack(1, 0, []trace.AuditEntry{{Kind: trace.KindSend, Shed: 3, Kept: 5}})
	if err := readExported(audit, func(*trace.Event) { t.Fatal("audit entry replayed as an event") }); err == nil {
		t.Fatal("audit pack accepted")
	}
}

// TestReadExportedMixedFormats replays a stream whose middle pack is v2:
// the reader must step over each pack by its encoded length, not by the
// fixed-record length its event count would have in v1.
func TestReadExportedMixedFormats(t *testing.T) {
	var stream []byte
	total := 0
	for i, c := range []struct{ version, events int }{{trace.PackV1, 3}, {trace.PackV2, 5}, {trace.PackV1, 2}} {
		b, err := trace.NewBuilder(c.version, 0, int32(i), trace.MinRecordSize, 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < c.events; j++ {
			ev := sendEvent(int32(i), int32(i+1), 64, int64(total), int64(total+1))
			b.Add(&ev)
			total++
		}
		stream = append(stream, b.Take()...)
	}
	var got []int64
	if err := readExported(stream, func(e *trace.Event) { got = append(got, e.TStart) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("replayed %d of %d events", len(got), total)
	}
	for i, ts := range got {
		if ts != int64(i) {
			t.Fatalf("event %d has timestamp %d: stream replayed out of order", i, ts)
		}
	}
}

func TestPipelineEnableExport(t *testing.T) {
	bb := blackboard.New(blackboard.Config{Workers: 2})
	defer bb.Close()
	p, err := NewPipeline(bb, "app", 4)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := p.EnableExport("sends", func(e *trace.Event) bool { return e.Kind.IsOutgoingP2P() })
	if err != nil {
		t.Fatal(err)
	}
	p.PostPack(buildPack(0, 0,
		sendEvent(0, 1, 10, 0, 1),
		trace.Event{Kind: trace.KindBarrier, Rank: 0},
		sendEvent(0, 2, 20, 1, 2),
	))
	bb.Drain()
	if exp.Exported() != 2 || exp.Dropped() != 1 {
		t.Fatalf("exported=%d dropped=%d", exp.Exported(), exp.Dropped())
	}
	// The profiler still saw everything (exporter is additive).
	if p.Profiler.Events() != 3 {
		t.Fatalf("profiler events = %d", p.Profiler.Events())
	}
}
