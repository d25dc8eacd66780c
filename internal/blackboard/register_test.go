package blackboard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCrossShardSensitivitySet: a KS sensitive to three types posted
// concurrently receives complete input sets in slot order. (The name is
// from when the types were picked to hash to different board partitions;
// the board has one.)
func TestCrossShardSensitivitySet(t *testing.T) {
	bb := New(Config{Workers: 4})
	defer bb.Close()
	types := []Type{TypeID("cross", "a"), TypeID("cross", "b"), TypeID("cross", "c")}

	var jobs atomic.Int64
	var bad atomic.Int64
	err := bb.Register(KS{
		Name:          "cross",
		Sensitivities: types,
		Op: func(_ *Blackboard, in []*Entry) {
			jobs.Add(1)
			// Slot order must match sensitivity order regardless of which
			// poster each entry arrived through.
			for i, e := range in {
				if e.Type != types[i] {
					bad.Add(1)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 200
	var wg sync.WaitGroup
	for _, ty := range types {
		ty := ty
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				bb.Post(ty, 1, nil)
			}
		}()
	}
	wg.Wait()
	bb.Drain()
	if got := jobs.Load(); got != rounds {
		t.Fatalf("three-type KS ran %d jobs, want %d", got, rounds)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d inputs arrived in the wrong slot", bad.Load())
	}
	if st := bb.Stats(); st.Dropped != 0 {
		t.Fatalf("%d entries dropped on an uncontended three-type set", st.Dropped)
	}
}

// TestTakeKSHandsOverParkedEntries: Unregister takes the entries parked on
// a partially satisfied sensitivity set off the board — the board's
// reference released, each one ledgered in Stats.Dropped — and unknown
// names are a no-op. (The name is from when a TakeKS handed them to a
// caller instead; nothing extracts parked entries any more.)
func TestTakeKSHandsOverParkedEntries(t *testing.T) {
	bb := New(Config{Workers: 2})
	defer bb.Close()
	a, b := TypeID("", "a"), TypeID("", "b")
	err := bb.Register(KS{
		Name:          "join",
		Sensitivities: []Type{a, b},
		Op:            func(_ *Blackboard, _ []*Entry) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three a-entries and no b-entry: all three park on slot 0. The test
	// keeps a reference of its own to watch the board's go.
	parked := make([]*Entry, 3)
	for i := range parked {
		parked[i] = NewEntry(a, int64(i), i)
		parked[i].Retain()
		bb.PostEntry(parked[i])
	}
	bb.Drain()
	for i, e := range parked {
		if e.refs.Load() != 2 {
			t.Fatalf("parked entry %d has %d refs, want the board's and the test's", i, e.refs.Load())
		}
	}
	bb.Unregister("join")
	for i, e := range parked {
		if e.refs.Load() != 1 {
			t.Errorf("entry %d still has %d refs after Unregister", i, e.refs.Load())
		}
	}
	if bb.Registered("join") {
		t.Error("Unregister left the KS registered")
	}
	if st := bb.Stats(); st.Dropped != 3 || st.Jobs != 0 {
		t.Errorf("stats after Unregister %+v, want 3 dropped and no job", st)
	}
	bb.Unregister("nope")
	if st := bb.Stats(); st.Dropped != 3 {
		t.Errorf("Unregister of an unknown name dropped entries: %+v", st)
	}
}

// TestOfferAfterTakeDiscards pins the re-registration discard race
// directly: a poster holding a published snapshot may offer to a state
// Unregister already removed. The offer must discard the entry (and the
// board must ledger it) — parking it on a dead state would leak it.
func TestOfferAfterTakeDiscards(t *testing.T) {
	bb := New(Config{Workers: 1})
	defer bb.Close()
	ty := TypeID("race", "victim")
	if err := bb.Register(KS{
		Name:          "victim",
		Sensitivities: []Type{ty, ty}, // two slots so a lone entry parks
		Op:            func(_ *Blackboard, _ []*Entry) {},
	}); err != nil {
		t.Fatal(err)
	}
	bb.regMu.RLock()
	st := bb.byName["victim"]
	bb.regMu.RUnlock()

	// Remove the KS, then replay the stale-snapshot path by hand.
	bb.Unregister("victim")
	if bb.Registered("victim") {
		t.Fatal("Unregister left the KS registered")
	}
	e := NewEntry(ty, 1, nil)
	e.Retain() // the poster's per-listener reference
	j, ok := st.offer(e)
	if ok || j.first != nil {
		t.Fatalf("offer to a removed state accepted the entry (ok=%v job=%v)", ok, j)
	}
	if e.refs.Load() != 1 {
		t.Fatalf("discarded offer left %d refs, want the caller's 1", e.refs.Load())
	}
	e.Release()
	// The same race through the board: PostEntry ledgers what offer refused.
	stale := sensMap{ty: {st}}
	bb.sens.Store(&stale)
	bb.Post(ty, 1, nil)
	if got := bb.Stats().Dropped; got != 1 {
		t.Fatalf("late offer through a stale snapshot: Dropped = %d, want 1", got)
	}
}

// TestReRegistrationRaceLedger hammers post against unregister/register
// cycles under the same name and checks the delivery ledger stays
// complete: every posted entry is either delivered to a job, parked,
// counted in Dropped (its listener died under it) or in Unclaimed (it
// landed between Unregister and the re-Register) — none vanish. Run with -race this also exercises
// the copy-on-write table publication.
func TestReRegistrationRaceLedger(t *testing.T) {
	bb := New(Config{Workers: 4})
	ty := TypeID("race", "churn")
	var delivered atomic.Int64
	reg := func() error {
		return bb.Register(KS{
			Name:          "churn",
			Sensitivities: []Type{ty},
			Op: func(_ *Blackboard, in []*Entry) {
				delivered.Add(int64(len(in)))
			},
		})
	}
	if err := reg(); err != nil {
		t.Fatal(err)
	}

	const posts = 5000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < posts; i++ {
			bb.Post(ty, 1, nil)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			bb.Unregister("churn")
			if err := reg(); err != nil {
				t.Errorf("re-register: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	bb.Drain()
	// A single-slot KS parks nothing; removing the last registration
	// ledgers anything that did park as dropped.
	bb.Unregister("churn")
	bb.Close()
	st := bb.Stats()
	if delivered.Load()+st.Dropped+st.Unclaimed != posts {
		t.Fatalf("ledger leak: %d delivered + %d dropped + %d unclaimed != %d posted",
			delivered.Load(), st.Dropped, st.Unclaimed, posts)
	}
	if st.Dropped+st.Unclaimed == 0 {
		t.Logf("note: churn run hit no discard races this time (valid, just unlucky)")
	}
}

// TestRegisterDuringPostHammer drives concurrent posts on many types
// against concurrent registrations; under -race this pins
// the copy-on-write invariant that published maps and listener slices
// are never mutated in place.
func TestRegisterDuringPostHammer(t *testing.T) {
	bb := New(Config{Workers: 4})
	defer bb.Close()
	types := make([]Type, 16)
	for i := range types {
		types[i] = TypeID("hammer", fmt.Sprintf("t%d", i))
	}
	var wg sync.WaitGroup
	wg.Add(len(types))
	for _, ty := range types {
		ty := ty
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				bb.Post(ty, 1, nil)
			}
		}()
	}
	var delivered atomic.Int64
	for i := 0; i < 32; i++ {
		err := bb.Register(KS{
			Name:          fmt.Sprintf("late-%d", i),
			Sensitivities: []Type{types[i%len(types)]},
			Op:            func(_ *Blackboard, in []*Entry) { delivered.Add(int64(len(in))) },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	bb.Drain()
	// No assertion on delivered counts (registration racing posts sees a
	// prefix of them); the test's value is the -race run plus liveness.
	if bb.Stats().Posted != int64(len(types))*500 {
		t.Fatalf("posted %d, want %d", bb.Stats().Posted, len(types)*500)
	}
}

// TestPostEntryAllocationFree pins the satellite contract: posting to a
// registered KS allocates nothing once warm — the listener lookup copies no
// snapshot, the entries come from the pool, the slot and job queues keep
// their storage and the job's input set is reused.
func TestPostEntryAllocationFree(t *testing.T) {
	bb := New(Config{Workers: 1})
	defer bb.Close()
	ty := TypeID("alloc", "t")
	if err := bb.Register(KS{
		Name:          "sink",
		Sensitivities: []Type{ty, ty}, // every pair of posts fires one job
		Op:            func(_ *Blackboard, _ []*Entry) {},
	}); err != nil {
		t.Fatal(err)
	}
	pair := func() {
		bb.Post(ty, 1, nil)
		bb.Post(ty, 1, nil)
		bb.Drain()
	}
	pair()
	if allocs := testing.AllocsPerRun(100, pair); allocs != 0 {
		t.Fatalf("post pair allocated %.1f objects, want 0", allocs)
	}
}
