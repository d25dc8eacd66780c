package adapt

import (
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// ledger reads a gate's counts per class and in total through Entries.
func ledger(g *Gate) (byKind map[trace.Kind]trace.AuditEntry, kept, shed int64) {
	byKind = map[trace.Kind]trace.AuditEntry{}
	for _, e := range g.Entries() {
		byKind[e.Kind] = e
		kept += e.Kept
		shed += e.Shed
	}
	return byKind, kept, shed
}

func TestNilGateAdmitsEverything(t *testing.T) {
	var g *Gate
	if !g.Admit(trace.KindSend) {
		t.Fatal("nil gate shed an event")
	}
	if g.TotalShed() != 0 {
		t.Fatal("nil gate counted")
	}
	g.SetInterval(trace.KindSend, -1) // must not panic
	if g.Entries() != nil || g.AuditPack(1, 0) != nil {
		t.Fatal("nil gate produced a ledger")
	}
}

func TestGateIntervalSemantics(t *testing.T) {
	g := NewGate()
	// Zero interval (fresh gate) admits all.
	for i := 0; i < 5; i++ {
		if !g.Admit(trace.KindSend) {
			t.Fatal("open gate shed")
		}
	}
	if e, _, _ := ledger(g); e[trace.KindSend].Kept != 5 || e[trace.KindSend].Shed != 0 {
		t.Fatalf("ledger %+v, want 5 kept / 0 shed", e[trace.KindSend])
	}

	// 1-in-4 sampling admits exactly the first of every four.
	g.SetInterval(trace.KindRecv, 4)
	var pattern []bool
	for i := 0; i < 12; i++ {
		pattern = append(pattern, g.Admit(trace.KindRecv))
	}
	for i, admitted := range pattern {
		if want := i%4 == 0; admitted != want {
			t.Fatalf("event %d: admitted=%v, want %v", i, admitted, want)
		}
	}
	if e, _, _ := ledger(g); e[trace.KindRecv].Kept != 3 || e[trace.KindRecv].Shed != 9 {
		t.Fatalf("ledger %+v, want 3 kept / 9 shed", e[trace.KindRecv])
	}

	// Negative interval sheds the whole class.
	g.SetInterval(trace.KindIsend, -1)
	for i := 0; i < 7; i++ {
		if g.Admit(trace.KindIsend) {
			t.Fatal("closed class admitted")
		}
	}
	e, kept, shed := ledger(g)
	if e[trace.KindIsend].Shed != 7 {
		t.Fatalf("shed=%d, want 7", e[trace.KindIsend].Shed)
	}
	if shed != 9+7 || kept != 5+3 || g.TotalShed() != shed {
		t.Fatalf("totals shed=%d kept=%d TotalShed=%d, want 16/8", shed, kept, g.TotalShed())
	}
}

func TestGateDeterministicSchedule(t *testing.T) {
	// Two gates programmed identically shed the identical event subset:
	// the sampling is counter-based, not random.
	a, b := NewGate(), NewGate()
	a.SetInterval(trace.KindSend, 8)
	b.SetInterval(trace.KindSend, 8)
	for i := 0; i < 100; i++ {
		if a.Admit(trace.KindSend) != b.Admit(trace.KindSend) {
			t.Fatalf("gates diverged at event %d", i)
		}
	}
}

func TestGateUnknownKind(t *testing.T) {
	g := NewGate()
	g.SetInterval(trace.KindInvalid, -1)
	g.SetInterval(trace.Kind(trace.KindCount), -1)
	if !g.Admit(trace.KindInvalid) || !g.Admit(trace.Kind(trace.KindCount+7)) {
		t.Fatal("unknown class shed: loss would be unaccountable")
	}
	if g.Entries() != nil {
		t.Fatal("unknown class counted")
	}
}

func TestGateAuditRoundTrip(t *testing.T) {
	g := NewGate()
	g.SetInterval(trace.KindSend, 2)
	g.SetInterval(trace.KindAllreduce, 1)
	for i := 0; i < 10; i++ {
		g.Admit(trace.KindSend)
		g.Admit(trace.KindAllreduce)
	}
	entries := g.Entries()
	if len(entries) != 2 {
		t.Fatalf("entries=%d, want 2 trafficked classes", len(entries))
	}

	buf := g.AuditPack(3, 7)
	if buf == nil {
		t.Fatal("no audit pack despite shed traffic")
	}
	h, decoded, err := trace.DecodeAuditPack(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.AppID != 3 || h.SrcRank != 7 || h.Version != trace.PackAudit {
		t.Fatalf("header %+v", h)
	}
	// Only classes with loss ride the wire; fully-kept classes cost nothing.
	if len(decoded) != 1 || decoded[0].Kind != trace.KindSend {
		t.Fatalf("decoded %+v, want only the sampled class", decoded)
	}
	if decoded[0].Shed != 5 || decoded[0].Kept != 5 {
		t.Fatalf("ledger %+v, want 5 shed / 5 kept", decoded[0])
	}

	// A gate that shed nothing ships no audit pack at all.
	clean := NewGate()
	clean.Admit(trace.KindSend)
	if clean.AuditPack(1, 0) != nil {
		t.Fatal("lossless gate produced an audit pack")
	}
}

// TestBoundConservativeProperty is the completeness-bound property test:
// under randomized shed schedules — intervals reprogrammed mid-stream,
// whole classes closed and reopened — plus adversarial downstream loss of
// admitted events, the report's advertised loss bound
// shed/(shed+analyzed) never understates the true loss
// shed/(shed+kept). The gate's conservation invariant (every offered
// event lands in exactly one of kept/shed) is what makes that hold.
func TestBoundConservativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed6))
	kinds := trace.Kinds()
	for trial := 0; trial < 200; trial++ {
		g := NewGate()
		offered := make(map[trace.Kind]int64)
		events := 500 + rng.Intn(2000)
		for i := 0; i < events; i++ {
			if rng.Intn(50) == 0 {
				// Reprogram a random class mid-stream, like the controller
				// moving levels: open, sampled, or closed.
				k := kinds[rng.Intn(len(kinds))]
				g.SetInterval(k, []int32{-1, 0, 1, 2, 8, 64}[rng.Intn(6)])
			}
			k := kinds[rng.Intn(len(kinds))]
			offered[k]++
			g.Admit(k)
		}

		mod := analysis.NewCompletenessModule()
		mod.AddAudit(g.Entries())
		byKind, _, _ := ledger(g)
		for _, k := range kinds {
			kept, shed := byKind[k].Kept, byKind[k].Shed
			if kept+shed != offered[k] {
				t.Fatalf("trial %d %s: kept %d + shed %d != offered %d (ledger leak)",
					trial, k, kept, shed, offered[k])
			}
			if shed == 0 {
				continue
			}
			// The analyzers may lose admitted events downstream (crashed
			// aggregators, quarantined streams) but never invent them.
			analyzed := rng.Int63n(kept + 1)
			bound := mod.Bound(k, analyzed)
			trueLoss := float64(shed) / float64(shed+kept)
			if bound < trueLoss-1e-12 {
				t.Fatalf("trial %d %s: advertised bound %.6f < true loss %.6f (kept %d shed %d analyzed %d)",
					trial, k, bound, trueLoss, kept, shed, analyzed)
			}
		}
	}
}
