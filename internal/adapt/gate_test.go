package adapt

import (
	"math/rand"
	"slices"
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

// admitPack offers one pack's events to g through a tally and returns its
// decisions.
func admitPack(g *Gate, kinds ...trace.Kind) []bool {
	var ta Tally
	ta.Start(g)
	out := make([]bool, len(kinds))
	for i, k := range kinds {
		out[i] = ta.Admit(k)
	}
	ta.Commit()
	return out
}

// repeat is n events of class k.
func repeat(k trace.Kind, n int) []trace.Kind { return slices.Repeat([]trace.Kind{k}, n) }

func TestNilGateAdmitsEverything(t *testing.T) {
	var g *Gate
	if !g.Admit(trace.KindSend) || slices.Contains(admitPack(g, trace.KindSend, trace.KindRecv), false) {
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
	if slices.Contains(admitPack(g, repeat(trace.KindSend, 5)...), false) {
		t.Fatal("open gate shed")
	}
	if e, _, _ := ledger(g); e[trace.KindSend].Kept != 5 || e[trace.KindSend].Shed != 0 {
		t.Fatalf("ledger %+v, want 5 kept / 0 shed", e[trace.KindSend])
	}

	// 1-in-4 sampling admits exactly the first of every four.
	g.SetInterval(trace.KindRecv, 4)
	for i, admitted := range admitPack(g, repeat(trace.KindRecv, 12)...) {
		if want := i%4 == 0; admitted != want {
			t.Fatalf("event %d: admitted=%v, want %v", i, admitted, want)
		}
	}
	if e, _, _ := ledger(g); e[trace.KindRecv].Kept != 3 || e[trace.KindRecv].Shed != 9 {
		t.Fatalf("ledger %+v, want 3 kept / 9 shed", e[trace.KindRecv])
	}

	// Negative interval sheds the whole class.
	g.SetInterval(trace.KindIsend, -1)
	if slices.Contains(admitPack(g, repeat(trace.KindIsend, 7)...), true) {
		t.Fatal("closed class admitted")
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
	for i := 0; i < 10; i++ {
		if !slices.Equal(admitPack(a, repeat(trace.KindSend, i)...), admitPack(b, repeat(trace.KindSend, i)...)) {
			t.Fatalf("gates diverged at pack %d", i)
		}
	}
}

func TestGateUnknownKind(t *testing.T) {
	g := NewGate()
	g.SetInterval(trace.KindInvalid, -1)
	g.SetInterval(trace.Kind(trace.KindCount), -1)
	if slices.Contains(admitPack(g, trace.KindInvalid, trace.Kind(trace.KindCount+7)), false) {
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
		admitPack(g, trace.KindSend, trace.KindAllreduce)
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
	admitPack(clean, trace.KindSend)
	if clean.AuditPack(1, 0) != nil {
		t.Fatal("lossless gate produced an audit pack")
	}
}

// TestBoundConservativeProperty is the completeness-bound property test:
// under randomized shed schedules — intervals reprogrammed mid-stream and
// mid-pack, whole classes closed and reopened, packs cut at random — plus
// adversarial downstream loss of
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
		var ta Tally
		ta.Start(g)
		for i := 0; i < events; i++ {
			if rng.Intn(50) == 0 {
				// Reprogram a random class mid-stream, like the controller
				// moving levels: open, sampled, or closed.
				k := kinds[rng.Intn(len(kinds))]
				g.SetInterval(k, []int32{-1, 0, 1, 2, 8, 64}[rng.Intn(6)])
			}
			if rng.Intn(40) == 0 { // a pack boundary
				ta.Commit()
				ta.Start(g)
			}
			k := kinds[rng.Intn(len(kinds))]
			offered[k]++
			ta.Admit(k)
		}
		ta.Commit()

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

// refGate is the per-event admission the tally replaced: each event meets
// its class's interval as it stands, and every count is the gate's own.
type refGate struct {
	interval         map[trace.Kind]int32
	seen, kept, shed map[trace.Kind]int64
}

func (m *refGate) admit(k trace.Kind) bool {
	if k == trace.KindInvalid || int(k) >= trace.KindCount {
		return true
	}
	iv := m.interval[k]
	keep := iv >= 0 && (iv <= 1 || m.seen[k]%int64(iv) == 0)
	if iv > 1 {
		m.seen[k]++
	}
	if keep {
		m.kept[k]++
	} else {
		m.shed[k]++
	}
	return keep
}

// TestTallyMatchesPerEventModel feeds 1 000 random packs — kinds 0, known
// and past the kind table, intervals open, sampled and closed reprogrammed
// between packs, now and then every class open again — through a tally,
// and every fifth pack through Admit one event at a time, and holds the
// decisions and the gate's ledger after every commit to the per-event
// model. A sampling class's 1-in-n runs on across packs.
func TestTallyMatchesPerEventModel(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	g := NewGate()
	ref := refGate{interval: map[trace.Kind]int32{}, seen: map[trace.Kind]int64{},
		kept: map[trace.Kind]int64{}, shed: map[trace.Kind]int64{}}
	var ta Tally
	for pack := 0; pack < 1000; pack++ {
		if rng.Intn(8) == 0 { // every class open again, like a relaxed controller
			for _, k := range trace.Kinds() {
				g.SetInterval(k, int32(rng.Intn(2)))
				ref.interval[k] = 0
			}
		}
		for n := rng.Intn(4); n > 0; n-- {
			k := trace.Kind(rng.Intn(trace.KindCount + 2))
			iv := []int32{-3, -1, 0, 1, 2, 3, 8}[rng.Intn(7)]
			g.SetInterval(k, iv)
			if known(k) {
				ref.interval[k] = iv
			}
		}
		ta.Start(g)
		one := pack%5 == 0
		for n := rng.Intn(60); n > 0; n-- {
			k := trace.Kind(rng.Intn(trace.KindCount))
			switch rng.Intn(10) {
			case 0:
				k = trace.KindInvalid
			case 1:
				k = trace.Kind(trace.KindCount + rng.Intn(256-trace.KindCount))
			}
			var got bool
			if one {
				got = g.Admit(k)
			} else {
				got = ta.Admit(k)
			}
			if want := ref.admit(k); got != want {
				t.Fatalf("pack %d: %s admitted %v, per-event model %v", pack, k, got, want)
			}
		}
		ta.Commit()
		var want []trace.AuditEntry
		var shed int64
		for _, k := range trace.Kinds() {
			if ref.kept[k]+ref.shed[k] > 0 {
				want = append(want, trace.AuditEntry{Kind: k, Kept: ref.kept[k], Shed: ref.shed[k]})
			}
			shed += ref.shed[k]
		}
		if got := g.Entries(); !slices.Equal(got, want) {
			t.Fatalf("pack %d: ledger %v, per-event model %v", pack, got, want)
		}
		if got := g.TotalShed(); got != shed {
			t.Fatalf("pack %d: TotalShed %d, per-event model %d", pack, got, shed)
		}
	}
}
