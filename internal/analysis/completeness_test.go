package analysis

import (
	"testing"

	"repro/internal/trace"
)

// TestCompletenessLedger pins the shed-ledger accounting: per-class
// accumulation, the conservative loss bound and the merge used at
// every tree tier.
func TestCompletenessLedger(t *testing.T) {
	m := NewCompletenessModule()
	if !m.Empty() {
		t.Fatal("fresh ledger not empty")
	}
	var nilLedger *CompletenessModule
	if !nilLedger.Empty() {
		t.Fatal("nil ledger not empty")
	}

	m.AddAudit([]trace.AuditEntry{
		{Kind: trace.KindSend, Shed: 3, Kept: 97},
		{Kind: trace.KindRecv, Shed: 0, Kept: 50},
	})
	m.AddAudit([]trace.AuditEntry{
		{Kind: trace.KindSend, Shed: 2, Kept: 48},
	})

	kinds := m.AppendKinds(nil)
	if len(kinds) != 2 || kinds[0] != trace.KindSend || kinds[1] != trace.KindRecv {
		t.Fatalf("kinds = %v", kinds)
	}
	if st := m.Stat(trace.KindSend); st.Shed != 5 || st.Kept != 145 {
		t.Fatalf("send stat = %+v", st)
	}
	if st := m.Stat(trace.KindBarrier); st != (ShedStat{}) {
		t.Fatalf("absent class stat = %+v", st)
	}
	if st := m.Stat(trace.KindRecv); st.Shed != 0 || st.Kept != 50 {
		t.Fatalf("recv stat = %+v", st)
	}
	if m.Empty() {
		t.Fatal("ledger with shed events reports empty")
	}

	// Bound is shed/(shed+analyzed), conservative and clamped.
	if b := m.Bound(trace.KindSend, 145); b != 5.0/150.0 {
		t.Fatalf("bound = %v", b)
	}
	if b := m.Bound(trace.KindSend, -1); b != 1 {
		t.Fatalf("bound with negative analyzed = %v", b)
	}
	if b := m.Bound(trace.KindRecv, 50); b != 0 {
		t.Fatalf("bound of shed-free class = %v", b)
	}

	// Merge is a per-class sum; merging nil is the identity.
	o := NewCompletenessModule()
	o.AddAudit([]trace.AuditEntry{{Kind: trace.KindBarrier, Shed: 7, Kept: 1}})
	m.Merge(o)
	m.Merge(nil)
	if st := m.Stat(trace.KindBarrier); st.Shed != 7 || st.Kept != 1 {
		t.Fatalf("merged barrier stat = %+v", st)
	}
	if shed := m.Stat(trace.KindSend).Shed + m.Stat(trace.KindBarrier).Shed; shed != 12 {
		t.Fatalf("merged total shed = %d", shed)
	}

	// A kept-only ledger bounds nothing.
	ko := NewCompletenessModule()
	ko.AddAudit([]trace.AuditEntry{{Kind: trace.KindSend, Kept: 10}})
	if !ko.Empty() {
		t.Fatal("kept-only ledger not empty")
	}
}

// TestPartialShedRoundTrip pins the shed section of the partial wire
// format: a partial that absorbed audit entries encodes them, the decode
// reconstructs them, and merging partials sums the ledgers.
func TestPartialShedRoundTrip(t *testing.T) {
	opts := PartialOptions{AppSize: 4}
	pp := NewPartial(1, opts)
	if pp.Options() != opts {
		t.Fatalf("options = %+v", pp.Options())
	}
	for i := 0; i < 16; i++ {
		ev := trace.Event{Kind: trace.KindSend, Rank: int32(i % 4), Peer: int32((i + 1) % 4),
			Size: 64, TStart: int64(i) * 10, TEnd: int64(i)*10 + 5}
		pp.AddEvent(&ev)
	}
	pp.AddAudit(nil) // no-op, must not materialize the ledger
	if pp.Shed != nil {
		t.Fatal("empty audit materialized the shed ledger")
	}
	pp.AddAudit([]trace.AuditEntry{{Kind: trace.KindSend, Shed: 9, Kept: 16}})

	buf := pp.AppendCanonical(nil)
	dec, err := DecodePartial(buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Shed == nil {
		t.Fatal("decoded partial lost the shed ledger")
	}
	if st := dec.Shed.Stat(trace.KindSend); st.Shed != 9 || st.Kept != 16 {
		t.Fatalf("decoded shed stat = %+v", st)
	}

	// Merging a shed-carrying partial into a shed-free one creates and
	// sums the ledger; the merged canonical bytes round-trip too.
	other := NewPartial(1, opts)
	if err := other.Merge(dec); err != nil {
		t.Fatal(err)
	}
	if other.Shed == nil || other.Shed.Stat(trace.KindSend).Shed != 9 {
		t.Fatal("merge dropped the shed ledger")
	}
	dec2, err := DecodePartial(other.AppendCanonical(nil))
	if err != nil {
		t.Fatal(err)
	}
	if st := dec2.Shed.Stat(trace.KindSend); st.Shed != 9 || st.Kept != 16 {
		t.Fatalf("re-decoded shed stat = %+v", st)
	}

	// A zero-shed ledger is elided from the wire (flagShed unset), so a
	// gated-but-lossless run encodes byte-identically to an ungated one.
	clean := NewPartial(1, opts)
	clean.AddAudit([]trace.AuditEntry{{Kind: trace.KindSend, Kept: 100}})
	dec3, err := DecodePartial(clean.AppendCanonical(nil))
	if err != nil {
		t.Fatal(err)
	}
	if dec3.Shed != nil {
		t.Fatal("lossless ledger survived encoding")
	}
}

// TestPartialWaitsMergeSortedQueues drives MergeFull through the pending
// queues: both sides hold unmatched events on the same channels, so the
// merge must interleave the sorted queues and then settle the pairs the
// union makes possible.
func TestPartialWaitsMergeSortedQueues(t *testing.T) {
	opts := PartialOptions{AppSize: 2, WaitState: true}
	a := NewPartial(1, opts)
	b := NewPartial(1, opts)

	send := func(pp *Partial, tstart int64) {
		ev := trace.Event{Kind: trace.KindSend, Rank: 0, Peer: 1, Tag: 1, Comm: 1,
			Size: 8, TStart: tstart, TEnd: tstart + 10}
		pp.AddEvent(&ev)
	}
	recv := func(pp *Partial, tstart int64) {
		ev := trace.Event{Kind: trace.KindRecv, Rank: 1, Peer: 0, Tag: 1, Comm: 1,
			Size: 8, TStart: tstart, TEnd: tstart + 100}
		pp.AddEvent(&ev)
	}
	// Interleave channel traffic across the two partials: odd sends and
	// even recvs on a, even sends and odd recvs on b. No pair can settle
	// locally... except those within one partial, so keep sides disjoint:
	// a holds all sends, b holds all recvs that started earlier (late
	// senders).
	send(a, 100)
	send(a, 300)
	recv(b, 50)
	recv(b, 250)
	// And give b a send queue on the same channel too, so mergeSorted runs
	// over two non-empty send queues.
	send(b, 500)
	recv(a, 450)

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if pairs := a.Waits.Pairs(); pairs != 3 {
		t.Fatalf("pairs after merge = %d, want 3", pairs)
	}
	// All three recvs started before their matched sends: late senders.
	if hits := a.Waits.LateSenderHits()[1]; hits != 3 {
		t.Fatalf("late-sender hits for rank 1 = %d, want 3", hits)
	}
}
