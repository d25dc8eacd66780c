package blackboard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// typesAcrossShards returns n types that all hash to distinct shards of
// bb (so a test can force cross-partition traffic deterministically).
func typesAcrossShards(t *testing.T, bb *Blackboard, n int) []Type {
	t.Helper()
	if n > len(bb.shards) {
		t.Fatalf("want %d distinct shards, board has %d", n, len(bb.shards))
	}
	used := make(map[*shard]bool)
	var out []Type
	for i := 0; len(out) < n && i < 1<<16; i++ {
		ty := TypeID("shardtest", fmt.Sprintf("type-%d", i))
		sh := bb.shardOf(ty)
		if !used[sh] {
			used[sh] = true
			out = append(out, ty)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d types on distinct shards", n)
	}
	return out
}

// TestShardSpread sanity-checks the shard function: a modest set of
// distinct types must land on more than one shard (the partitioning is
// the whole point), and shardOf must be stable.
func TestShardSpread(t *testing.T) {
	bb := New(Config{Workers: 4, Shards: 4})
	defer bb.Close()
	if len(bb.shards) != 4 {
		t.Fatalf("Shards: 4 built %d shards", len(bb.shards))
	}
	seen := make(map[*shard]int)
	for i := 0; i < 64; i++ {
		ty := TypeID("spread", fmt.Sprintf("t%d", i))
		if bb.shardOf(ty) != bb.shardOf(ty) {
			t.Fatal("shardOf is not stable")
		}
		seen[bb.shardOf(ty)]++
	}
	if len(seen) < 2 {
		t.Fatalf("64 types all hashed to %d shard(s)", len(seen))
	}
}

// TestShardsClampedToWorkers pins the invariant that every shard owns at
// least one worker: a shard with no worker would queue jobs forever.
func TestShardsClampedToWorkers(t *testing.T) {
	bb := New(Config{Workers: 2, Shards: 8})
	defer bb.Close()
	if len(bb.shards) != 2 {
		t.Fatalf("Shards clamp: got %d shards for 2 workers", len(bb.shards))
	}
}

// TestCrossShardSensitivitySet is the satellite-mandated completeness
// check: a KS sensitive to types that hash to different partitions must
// still receive complete input sets — the partitioning moves queues and
// sensitivity tables, never the per-KS slot state.
func TestCrossShardSensitivitySet(t *testing.T) {
	bb := New(Config{Workers: 4, Shards: 4})
	defer bb.Close()
	types := typesAcrossShards(t, bb, 3)

	var jobs atomic.Int64
	var bad atomic.Int64
	err := bb.Register(KS{
		Name:          "cross",
		Sensitivities: types,
		Op: func(_ *Blackboard, in []*Entry) {
			jobs.Add(1)
			// Slot order must match sensitivity order regardless of which
			// shard each entry arrived through.
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
		t.Fatalf("cross-shard KS ran %d jobs, want %d", got, rounds)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d inputs arrived in the wrong slot", bad.Load())
	}
	if st := bb.Stats(); st.Dropped != 0 {
		t.Fatalf("%d entries dropped on an uncontended cross-shard set", st.Dropped)
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
		if e.Refs() != 2 {
			t.Fatalf("parked entry %d has %d refs, want the board's and the test's", i, e.Refs())
		}
	}
	bb.Unregister("join")
	for i, e := range parked {
		if !e.Writable() {
			t.Errorf("entry %d still has %d refs after Unregister", i, e.Refs())
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
	inputs, ok := st.offer(e)
	if ok || inputs != nil {
		t.Fatalf("offer to a removed state accepted the entry (ok=%v inputs=%v)", ok, inputs)
	}
	if e.Refs() != 1 {
		t.Fatalf("discarded offer left %d refs, want the caller's 1", e.Refs())
	}
	e.Release()
	// The same race through the board: PostEntry ledgers what offer refused.
	stale := sensMap{ty: {st}}
	bb.shardOf(ty).sens.Store(&stale)
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
	bb := New(Config{Workers: 4, Shards: 4})
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
// against concurrent registrations across shards; under -race this pins
// the copy-on-write invariant that published maps and listener slices
// are never mutated in place.
func TestRegisterDuringPostHammer(t *testing.T) {
	bb := New(Config{Workers: 4, Shards: 4})
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
// registered single-sensitivity KS allocates only what the job itself
// needs — the listener lookup allocates nothing (no per-post snapshot
// copy of the listener slice).
func TestPostEntryAllocationFree(t *testing.T) {
	bb := New(Config{Workers: 1})
	defer bb.Close()
	ty := TypeID("alloc", "t")
	if err := bb.Register(KS{
		Name:          "sink",
		Sensitivities: []Type{ty, ty}, // never fires: entries park and rotate
		Op:            func(_ *Blackboard, _ []*Entry) {},
	}); err != nil {
		t.Fatal(err)
	}
	// Two-slot KS: each post parks on one slot; pairing posts makes every
	// pair produce exactly one job. Budget per pair: 2 entries, 1 inputs
	// slice, ~2 amortized slice growths (pend + job FIFO). The
	// pre-sharding board added one listener-snapshot copy per post (two
	// more per pair), which is the regression this guards against.
	allocs := testing.AllocsPerRun(100, func() {
		bb.Post(ty, 1, nil)
		bb.Post(ty, 1, nil)
	})
	bb.Drain()
	if allocs > 5 {
		t.Fatalf("post pair allocated %.1f objects, want <= 5 (no listener snapshot copies)", allocs)
	}
}
