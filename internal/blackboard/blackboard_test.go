package blackboard

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSingleSensitivityTriggersPerEntry(t *testing.T) {
	bb := New(Config{Workers: 4})
	defer bb.Close()
	typ := TypeID("app", "event")
	var sum atomic.Int64
	if err := bb.Register(KS{
		Name:          "adder",
		Sensitivities: []Type{typ},
		Op: func(_ *Blackboard, in []*Entry) {
			sum.Add(in[0].Payload.(int64))
		},
	}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 100; i++ {
		bb.Post(typ, 8, i)
	}
	bb.Drain()
	if got := sum.Load(); got != 5050 {
		t.Fatalf("sum = %d, want 5050", got)
	}
	if bb.KSJobs("adder") != 100 {
		t.Fatalf("jobs = %d", bb.KSJobs("adder"))
	}
}

func TestMultiTypeSensitivityWaitsForAll(t *testing.T) {
	bb := New(Config{Workers: 2})
	defer bb.Close()
	a, b := TypeID("l", "A"), TypeID("l", "B")
	var pairs atomic.Int64
	if err := bb.Register(KS{
		Name:          "join",
		Sensitivities: []Type{a, b},
		Op: func(_ *Blackboard, in []*Entry) {
			if in[0].Type != a || in[1].Type != b {
				t.Error("inputs not in slot order")
			}
			pairs.Add(1)
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Three As, no B: no job may fire.
	for i := 0; i < 3; i++ {
		bb.Post(a, 0, nil)
	}
	bb.Drain()
	if pairs.Load() != 0 {
		t.Fatal("join fired without its B input")
	}
	// Two Bs: two pairs complete.
	bb.Post(b, 0, nil)
	bb.Post(b, 0, nil)
	bb.Drain()
	if pairs.Load() != 2 {
		t.Fatalf("pairs = %d, want 2", pairs.Load())
	}
}

func TestDuplicateSensitivityConsumesTwo(t *testing.T) {
	bb := New(Config{Workers: 2})
	defer bb.Close()
	typ := TypeID("l", "item")
	var calls atomic.Int64
	if err := bb.Register(KS{
		Name:          "pairwise",
		Sensitivities: []Type{typ, typ},
		Op: func(_ *Blackboard, in []*Entry) {
			if len(in) != 2 {
				t.Errorf("inputs = %d", len(in))
			}
			calls.Add(1)
		},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		bb.Post(typ, 0, i)
	}
	bb.Drain()
	if calls.Load() != 5 {
		t.Fatalf("pairwise calls = %d, want 5", calls.Load())
	}
}

func TestChainedDataFlow(t *testing.T) {
	// pack -> unpack -> events -> reduce, the paper's Figure 4 shape.
	bb := New(Config{Workers: 4})
	defer bb.Close()
	packT := TypeID("app", "pack")
	evT := TypeID("app", "event")
	var reduced atomic.Int64
	if err := bb.Register(KS{
		Name:          "unpacker",
		Sensitivities: []Type{packT},
		Op: func(bb *Blackboard, in []*Entry) {
			n := in[0].Payload.(int)
			for i := 0; i < n; i++ {
				bb.Post(evT, 1, 1)
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := bb.Register(KS{
		Name:          "profiler",
		Sensitivities: []Type{evT},
		Op: func(_ *Blackboard, in []*Entry) {
			reduced.Add(int64(in[0].Payload.(int)))
		},
	}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 20; p++ {
		bb.Post(packT, 0, 50)
	}
	bb.Drain()
	if reduced.Load() != 1000 {
		t.Fatalf("reduced = %d, want 1000", reduced.Load())
	}
}

func TestMultiLevelIsolation(t *testing.T) {
	bb := New(Config{Workers: 4})
	defer bb.Close()
	var la, lb atomic.Int64
	for _, lvl := range []struct {
		name string
		ctr  *atomic.Int64
	}{{"appA", &la}, {"appB", &lb}} {
		lvl := lvl
		if err := bb.Register(KS{
			Name:          "profiler@" + lvl.name,
			Sensitivities: []Type{TypeID(lvl.name, "event")},
			Op:            func(_ *Blackboard, _ []*Entry) { lvl.ctr.Add(1) },
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 7; i++ {
		bb.Post(TypeID("appA", "event"), 0, nil)
	}
	for i := 0; i < 3; i++ {
		bb.Post(TypeID("appB", "event"), 0, nil)
	}
	bb.Drain()
	if la.Load() != 7 || lb.Load() != 3 {
		t.Fatalf("levels crossed: A=%d B=%d", la.Load(), lb.Load())
	}
}

func TestTypeIDLevelSeparation(t *testing.T) {
	if TypeID("a", "x") == TypeID("b", "x") {
		t.Fatal("levels must hash apart")
	}
	if TypeID("a", "x") == TypeID("a", "y") {
		t.Fatal("types must hash apart")
	}
	if TypeID("ab", "c") == TypeID("a", "bc") {
		t.Fatal("level/name boundary must be delimited")
	}
}

func TestDynamicRegistrationFromOperation(t *testing.T) {
	bb := New(Config{Workers: 2})
	defer bb.Close()
	trigger := TypeID("l", "trigger")
	work := TypeID("l", "work")
	var handled atomic.Int64
	if err := bb.Register(KS{
		Name:          "bootstrap",
		Sensitivities: []Type{trigger},
		Op: func(bb *Blackboard, _ []*Entry) {
			// Opportunistic reasoning: install a new KS, remove myself.
			if err := bb.Register(KS{
				Name:          "worker",
				Sensitivities: []Type{work},
				Op:            func(_ *Blackboard, _ []*Entry) { handled.Add(1) },
			}); err != nil {
				t.Error(err)
			}
			bb.Unregister("bootstrap")
		},
	}); err != nil {
		t.Fatal(err)
	}
	bb.Post(trigger, 0, nil)
	bb.Drain()
	if bb.Registered("bootstrap") || !bb.Registered("worker") {
		t.Fatal("dynamic (un)registration failed")
	}
	bb.Post(work, 0, nil)
	bb.Drain()
	if handled.Load() != 1 {
		t.Fatalf("handled = %d", handled.Load())
	}
}

func TestUnregisterReleasesPendingEntries(t *testing.T) {
	bb := New(Config{Workers: 1})
	defer bb.Close()
	a, b := TypeID("l", "A"), TypeID("l", "B")
	if err := bb.Register(KS{
		Name:          "join",
		Sensitivities: []Type{a, b},
		Op:            func(_ *Blackboard, _ []*Entry) {},
	}); err != nil {
		t.Fatal(err)
	}
	e := NewEntry(a, 0, nil)
	e.Retain() // keep our own reference to observe the count
	bb.PostEntry(e)
	bb.Drain()
	if e.refs.Load() != 2 { // ours + the pending slot's
		t.Fatalf("refs = %d, want 2", e.refs.Load())
	}
	bb.Unregister("join")
	if e.refs.Load() != 1 {
		t.Fatalf("refs after unregister = %d, want 1", e.refs.Load())
	}
}

func TestRegisterValidation(t *testing.T) {
	bb := New(Config{Workers: 1})
	defer bb.Close()
	nop := func(_ *Blackboard, _ []*Entry) {}
	if err := bb.Register(KS{Name: "", Sensitivities: []Type{1}, Op: nop}); err == nil {
		t.Fatal("unnamed KS accepted")
	}
	if err := bb.Register(KS{Name: "x", Op: nop}); err == nil {
		t.Fatal("KS without sensitivities accepted")
	}
	if err := bb.Register(KS{Name: "x", Sensitivities: []Type{1}}); err == nil {
		t.Fatal("KS without op accepted")
	}
	if err := bb.Register(KS{Name: "x", Sensitivities: []Type{1}, Op: nop}); err != nil {
		t.Fatal(err)
	}
	if err := bb.Register(KS{Name: "x", Sensitivities: []Type{1}, Op: nop}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestEntryRefcounting(t *testing.T) {
	e := NewEntry(1, 10, "payload")
	if e.refs.Load() != 1 {
		t.Fatal("fresh entry should hold one ref")
	}
	e.Retain()
	if e.refs.Load() != 2 {
		t.Fatal("retained entry should hold two refs")
	}
	if e.Release() {
		t.Fatal("first release should not be last")
	}
	if !e.Release() {
		t.Fatal("second release should be last")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release must panic")
		}
	}()
	e.Release()
}

func TestEntriesSharedAcrossKSs(t *testing.T) {
	// Two KSs listening to the same type each see every entry; during the
	// ops the entry must not be writable (it is shared).
	bb := New(Config{Workers: 4})
	defer bb.Close()
	typ := TypeID("l", "shared")
	var writable atomic.Int64
	var seen atomic.Int64
	op := func(_ *Blackboard, in []*Entry) {
		seen.Add(1)
		if in[0].refs.Load() == 1 && seen.Load() < 2 {
			// The very last op to run may hold the only remaining ref;
			// any earlier observation of writability is a bug.
			writable.Add(1)
		}
	}
	for _, name := range []string{"ks1", "ks2"} {
		if err := bb.Register(KS{Name: name, Sensitivities: []Type{typ}, Op: op}); err != nil {
			t.Fatal(err)
		}
	}
	bb.Post(typ, 0, nil)
	bb.Drain()
	if seen.Load() != 2 {
		t.Fatalf("seen = %d, want 2", seen.Load())
	}
}

func TestDrainWaitsForCascade(t *testing.T) {
	bb := New(Config{Workers: 4})
	defer bb.Close()
	typ := TypeID("l", "chain")
	var depth atomic.Int64
	if err := bb.Register(KS{
		Name:          "chain",
		Sensitivities: []Type{typ},
		Op: func(bb *Blackboard, in []*Entry) {
			d := in[0].Payload.(int)
			depth.Store(int64(d))
			if d < 50 {
				bb.Post(typ, 0, d+1)
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	bb.Post(typ, 0, 1)
	bb.Drain()
	if depth.Load() != 50 {
		t.Fatalf("drain returned before the cascade settled: depth = %d", depth.Load())
	}
}

func TestPostWithNoListenersIsDropped(t *testing.T) {
	bb := New(Config{Workers: 1})
	defer bb.Close()
	e := NewEntry(TypeID("l", "orphan"), 0, nil)
	e.Retain()
	bb.PostEntry(e)
	bb.Drain()
	if e.refs.Load() != 1 {
		t.Fatalf("orphan entry refs = %d, want 1 (only ours)", e.refs.Load())
	}
	if bb.Stats().Posted != 1 {
		t.Fatalf("stats = %+v", bb.Stats())
	}
}

func TestManyProducersParallel(t *testing.T) {
	bb := New(Config{Workers: 8})
	defer bb.Close()
	typ := TypeID("l", "n")
	var sum atomic.Int64
	if err := bb.Register(KS{
		Name:          "sum",
		Sensitivities: []Type{typ},
		Op:            func(_ *Blackboard, in []*Entry) { sum.Add(in[0].Payload.(int64)) },
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const producers, per = 8, 500
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				bb.Post(typ, 8, int64(1))
			}
		}()
	}
	wg.Wait()
	bb.Drain()
	if sum.Load() != producers*per {
		t.Fatalf("sum = %d, want %d", sum.Load(), producers*per)
	}
	st := bb.Stats()
	if st.Jobs != producers*per || st.Posted != producers*per {
		t.Fatalf("stats = %+v", st)
	}
}

// Property: for arbitrary interleavings of two entry types, the join KS
// fires exactly min(countA, countB) times.
func TestJoinCountProperty(t *testing.T) {
	f := func(pattern []bool) bool {
		bb := New(Config{Workers: 3})
		defer bb.Close()
		a, b := TypeID("l", "A"), TypeID("l", "B")
		var fired atomic.Int64
		if err := bb.Register(KS{
			Name:          "join",
			Sensitivities: []Type{a, b},
			Op:            func(_ *Blackboard, _ []*Entry) { fired.Add(1) },
		}); err != nil {
			return false
		}
		na, nb := 0, 0
		for _, isA := range pattern {
			if isA {
				bb.Post(a, 0, nil)
				na++
			} else {
				bb.Post(b, 0, nil)
				nb++
			}
		}
		bb.Drain()
		want := na
		if nb < na {
			want = nb
		}
		return fired.Load() == int64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPostSingleKS(b *testing.B) {
	bb := New(Config{Workers: 4})
	defer bb.Close()
	typ := TypeID("l", "ev")
	var sink atomic.Int64
	bb.Register(KS{Name: "sink", Sensitivities: []Type{typ}, Op: func(_ *Blackboard, in []*Entry) {
		sink.Add(in[0].Size)
	}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.Post(typ, 48, nil)
	}
	bb.Drain()
}

func BenchmarkPostParallel(b *testing.B) {
	bb := New(Config{Workers: 8})
	defer bb.Close()
	typ := TypeID("l", "ev")
	var sink atomic.Int64
	bb.Register(KS{Name: "sink", Sensitivities: []Type{typ}, Op: func(_ *Blackboard, in []*Entry) {
		sink.Add(1)
	}})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			bb.Post(typ, 48, nil)
		}
	})
	bb.Drain()
}

func TestFaultyKSIsolated(t *testing.T) {
	// A panicking knowledge source — the paper's KSs are third-party
	// plugins — must not kill workers or wedge Drain/Close.
	bb := New(Config{Workers: 2})
	defer bb.Close()
	typ := TypeID("l", "risky")
	var ok atomic.Int64
	if err := bb.Register(KS{
		Name:          "bomb",
		Sensitivities: []Type{typ},
		Op: func(_ *Blackboard, in []*Entry) {
			if in[0].Payload.(int)%3 == 0 {
				panic("plugin bug")
			}
			ok.Add(1)
		},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		bb.Post(typ, 0, i)
	}
	bb.Drain()
	st := bb.Stats()
	if st.OpPanics != 10 {
		t.Fatalf("panics = %d, want 10", st.OpPanics)
	}
	if ok.Load() != 20 {
		t.Fatalf("survivors = %d, want 20", ok.Load())
	}
	if st.Jobs != 30 {
		t.Fatalf("jobs = %d (panicked jobs still count as executed)", st.Jobs)
	}
	// The engine still works afterwards.
	bb.Post(typ, 0, 1)
	bb.Drain()
	if ok.Load() != 21 {
		t.Fatal("engine wedged after plugin panics")
	}
}

func TestStatsConcurrentWithPosting(t *testing.T) {
	// Stats() and KSJobs() are host-side observability calls; they must be
	// safe (and monotone) while producers and workers are running, not just
	// after Drain. Run under -race this also pins the counters' atomicity.
	bb := New(Config{Workers: 8})
	defer bb.Close()
	typ := TypeID("l", "n")
	if err := bb.Register(KS{
		Name:          "sink",
		Sensitivities: []Type{typ},
		Op:            func(_ *Blackboard, _ []*Entry) {},
	}); err != nil {
		t.Fatal(err)
	}
	const producers, per = 8, 500
	stop := make(chan struct{})
	polls := make(chan int, 1)
	go func() {
		n := 0
		var lastPosted, lastJobs int64
		for {
			select {
			case <-stop:
				polls <- n
				return
			default:
			}
			st := bb.Stats()
			jobs := bb.KSJobs("sink")
			if st.Posted < lastPosted || jobs < lastJobs {
				t.Error("stats went backwards under concurrency")
				polls <- n
				return
			}
			if st.Posted > producers*per || jobs > producers*per {
				t.Errorf("stats overshot: posted=%d jobs=%d", st.Posted, jobs)
				polls <- n
				return
			}
			lastPosted, lastJobs = st.Posted, jobs
			n++
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				bb.Post(typ, 8, int64(i))
			}
		}()
	}
	wg.Wait()
	bb.Drain()
	close(stop)
	if n := <-polls; n == 0 {
		t.Fatal("poller never observed the board")
	}
	st := bb.Stats()
	if st.Posted != producers*per || st.Jobs != producers*per {
		t.Fatalf("final stats = %+v, want %d posted and executed", st, producers*per)
	}
	if bb.KSJobs("sink") != producers*per {
		t.Fatalf("KSJobs = %d, want %d", bb.KSJobs("sink"), producers*per)
	}
}

func TestPostAfterCloseDropsAndCounts(t *testing.T) {
	bb := New(Config{Workers: 1})
	typ := TypeID("l", "late")
	bb.Close()
	e := NewEntry(typ, 1, nil)
	bb.PostEntry(e) // must not panic
	bb.Post(typ, 1, nil)
	if got := bb.Stats().Dropped; got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	if e.refs.Load() != 0 {
		t.Fatalf("dropped entry holds %d refs, want 0 (reference released)", e.refs.Load())
	}
}

// TestDroppedLedgerComplete pins Stats.Dropped as a complete discard
// ledger: parked partials released by Unregister and posts arriving after
// Close are both counted, so deliveries + parked + dropped always
// reconciles against posts. (The adaptive engine reports these counts in
// the loss-accounting chapter; an uncounted discard path would understate
// engine-side loss.)
func TestDroppedLedgerComplete(t *testing.T) {
	bb := New(Config{Workers: 2})
	typ := TypeID("l", "A")
	other := TypeID("l", "B")
	var fired atomic.Int64
	if err := bb.Register(KS{
		Name:          "join",
		Sensitivities: []Type{typ, other},
		Op:            func(_ *Blackboard, _ []*Entry) { fired.Add(1) },
	}); err != nil {
		t.Fatal(err)
	}
	// Three A-entries park (no B ever arrives): released at unregister,
	// each must land in Dropped.
	for i := 0; i < 3; i++ {
		bb.Post(typ, 0, nil)
	}
	bb.Drain()
	bb.Unregister("join")
	if got := bb.Stats().Dropped; got != 3 {
		t.Fatalf("Dropped after unregister = %d, want 3 parked discards", got)
	}
	if fired.Load() != 0 {
		t.Fatal("join fired without its second input")
	}

	// Posts after Close are discarded — and counted.
	bb.Close()
	bb.Post(typ, 0, nil)
	if got := bb.Stats().Dropped; got != 4 {
		t.Fatalf("Dropped after late post = %d, want 4", got)
	}
	if bb.Stats().Posted != 3 {
		t.Fatalf("Posted = %d, want 3 (late post discarded, not posted)", bb.Stats().Posted)
	}
}

// KSJobs returns how many jobs a named KS has executed (0 for unknown
// names).
func (bb *Blackboard) KSJobs(name string) int64 {
	bb.regMu.RLock()
	st, ok := bb.byName[name]
	bb.regMu.RUnlock()
	if !ok {
		return 0
	}
	return st.jobs.Load()
}
