package vmpi

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// runMPMD builds a world from (name, procs, main) triples where main
// receives an initialized Session, and runs it.
type progSpec struct {
	name  string
	procs int
	main  func(s *Session)
}

func runMPMD(t *testing.T, specs ...progSpec) *Layout {
	t.Helper()
	l, err := launch(specs...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func launch(specs ...progSpec) (*Layout, error) {
	var layout *Layout
	progs := make([]mpi.Program, len(specs))
	for i, sp := range specs {
		sp := sp
		progs[i] = mpi.Program{
			Name:  sp.name,
			Procs: sp.procs,
			Main: func(r *mpi.Rank) {
				sp.main(layout.Init(r))
			},
		}
	}
	w := mpi.NewWorld(mpi.DefaultConfig(), progs...)
	layout = NewLayout(w)
	return layout, w.Run()
}

func TestLayoutPartitions(t *testing.T) {
	l := runMPMD(t,
		progSpec{"app", 3, func(s *Session) {}},
		progSpec{"Analyzer", 2, func(s *Session) {}},
	)
	if l.PartitionCount() != 2 {
		t.Fatalf("partitions = %d", l.PartitionCount())
	}
	an := l.DescByName("Analyzer")
	if an == nil || an.Size() != 2 || an.Root() != 3 {
		t.Fatalf("analyzer partition wrong: %+v", an)
	}
	if l.DescByName("nope") != nil {
		t.Fatal("DescByName should return nil for unknown names")
	}
	if l.PartitionOf(4) != an {
		t.Fatal("PartitionOf wrong")
	}
}

func TestLayoutMergesByName(t *testing.T) {
	// Two MPMD entries with the same program name form one partition, as
	// the paper groups processes "by names or command lines".
	l := runMPMD(t,
		progSpec{"app", 2, func(s *Session) {}},
		progSpec{"app", 3, func(s *Session) {}},
	)
	if l.PartitionCount() != 1 {
		t.Fatalf("partitions = %d, want 1", l.PartitionCount())
	}
	if l.Partition(0).Size() != 5 {
		t.Fatalf("merged size = %d", l.Partition(0).Size())
	}
}

func TestVirtualizedWorldIsSandboxed(t *testing.T) {
	// Each partition communicates on its own world comm with local ranks;
	// the same (dst, tag) in two partitions must not cross.
	got := map[string]int64{}
	main := func(who string) func(s *Session) {
		return func(s *Session) {
			wc := s.WorldComm()
			if wc.Size() != 2 {
				t.Errorf("%s: local size = %d", who, wc.Size())
			}
			switch s.LocalRank() {
			case 0:
				var sz int64 = 100
				if who == "b" {
					sz = 200
				}
				s.Rank().Send(wc, 1, 5, sz, nil)
			case 1:
				st, _ := s.Rank().Recv(wc, 0, 5)
				got[who] = st.Size
			}
		}
	}
	runMPMD(t,
		progSpec{"a", 2, main("a")},
		progSpec{"b", 2, main("b")},
	)
	if got["a"] != 100 || got["b"] != 200 {
		t.Fatalf("cross-partition leak: got %v", got)
	}
}

func TestUniverseSpansAll(t *testing.T) {
	ok := false
	runMPMD(t,
		progSpec{"a", 1, func(s *Session) {
			s.Rank().Send(s.Universe(), 1, 9, 7, nil)
		}},
		progSpec{"b", 1, func(s *Session) {
			st, _ := s.Rank().Recv(s.Universe(), 0, 9)
			ok = st.Size == 7
		}},
	)
	if !ok {
		t.Fatal("universe communication failed")
	}
}

// mapNTo1 maps n app processes to one analyzer and returns the maps seen by
// each side.
func TestMapRoundRobinNTo1(t *testing.T) {
	appTargets := make([][]int, 4)
	var anTargets []int
	runMPMD(t,
		progSpec{"app", 4, func(s *Session) {
			var m Map
			an := s.Layout().DescByName("Analyzer")
			if err := s.MapPartitions(an.ID, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			appTargets[s.LocalRank()] = append([]int(nil), m.Targets()...)
		}},
		progSpec{"Analyzer", 1, func(s *Session) {
			var m Map
			app := s.Layout().DescByName("app")
			if err := s.MapPartitions(app.ID, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			anTargets = append([]int(nil), m.Targets()...)
		}},
	)
	for i, tg := range appTargets {
		if len(tg) != 1 || tg[0] != 4 {
			t.Fatalf("app rank %d targets = %v, want [4]", i, tg)
		}
	}
	if len(anTargets) != 4 {
		t.Fatalf("analyzer targets = %v, want all 4 app ranks", anTargets)
	}
}

func TestMapRoundRobinDealsEvenly(t *testing.T) {
	var an0, an1 []int
	runMPMD(t,
		progSpec{"app", 6, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
			}
		}},
		progSpec{"an", 2, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			if s.LocalRank() == 0 {
				an0 = append([]int(nil), m.Targets()...)
			} else {
				an1 = append([]int(nil), m.Targets()...)
			}
		}},
	)
	// Slaves are app globals 0..5; round-robin deals 0,2,4 to analyzer 0
	// and 1,3,5 to analyzer 1.
	want0, want1 := []int{0, 2, 4}, []int{1, 3, 5}
	for i := range want0 {
		if an0[i] != want0[i] || an1[i] != want1[i] {
			t.Fatalf("an0 = %v an1 = %v", an0, an1)
		}
	}
}

func TestMapFixedBlocks(t *testing.T) {
	var an0, an1 []int
	runMPMD(t,
		progSpec{"app", 6, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapFixed, &m); err != nil {
				t.Error(err)
			}
		}},
		progSpec{"an", 2, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapFixed, &m); err != nil {
				t.Error(err)
				return
			}
			if s.LocalRank() == 0 {
				an0 = append([]int(nil), m.Targets()...)
			} else {
				an1 = append([]int(nil), m.Targets()...)
			}
		}},
	)
	want0, want1 := []int{0, 1, 2}, []int{3, 4, 5}
	for i := range want0 {
		if an0[i] != want0[i] || an1[i] != want1[i] {
			t.Fatalf("an0 = %v an1 = %v", an0, an1)
		}
	}
}

func TestMapRandomCoversAllSlaves(t *testing.T) {
	seen := map[int]int{}
	runMPMD(t,
		progSpec{"app", 8, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRandom, &m); err != nil {
				t.Error(err)
				return
			}
			if len(m.Targets()) != 1 {
				t.Errorf("slave should get exactly one target, got %v", m.Targets())
			}
		}},
		progSpec{"an", 2, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRandom, &m); err != nil {
				t.Error(err)
				return
			}
			for _, g := range m.Targets() {
				seen[g]++
			}
		}},
	)
	if len(seen) != 8 {
		t.Fatalf("random mapping must cover every slave exactly once: %v", seen)
	}
	for g, n := range seen {
		if n != 1 {
			t.Fatalf("slave %d mapped %d times", g, n)
		}
	}
}

func TestMapAdditiveMultiInstrumentation(t *testing.T) {
	// One analyzer maps two application partitions into the same map, the
	// multi-instrumentation pattern of the paper's Figure 10.
	var targets []int
	var perPart [2][]int
	runMPMD(t,
		progSpec{"appA", 2, func(s *Session) {
			var m Map
			if err := s.MapPartitions(2, MapRoundRobin, &m); err != nil {
				t.Error(err)
			}
		}},
		progSpec{"appB", 3, func(s *Session) {
			var m Map
			if err := s.MapPartitions(2, MapRoundRobin, &m); err != nil {
				t.Error(err)
			}
		}},
		progSpec{"Analyzer", 1, func(s *Session) {
			var m Map
			for pid := 0; pid < s.Layout().PartitionCount(); pid++ {
				if pid == s.PartitionID() {
					continue
				}
				if err := s.MapPartitions(pid, MapRoundRobin, &m); err != nil {
					t.Error(err)
				}
			}
			targets = append([]int(nil), m.Targets()...)
			for _, g := range targets {
				for pid := range perPart {
					if slices.Contains(s.Layout().Partition(pid).Globals, g) {
						perPart[pid] = append(perPart[pid], g)
					}
				}
			}
		}},
	)
	if len(targets) != 5 {
		t.Fatalf("additive map should hold all 5 app ranks, got %v", targets)
	}
	if len(perPart[0]) != 2 || len(perPart[1]) != 3 {
		t.Fatalf("per-partition targets wrong: %v / %v", perPart[0], perPart[1])
	}
}

func TestMapErrors(t *testing.T) {
	runMPMD(t, progSpec{"solo", 1, func(s *Session) {
		var m Map
		if err := s.MapPartitions(0, MapRoundRobin, &m); err == nil {
			t.Error("self-mapping should fail")
		}
		if err := s.MapPartitions(42, MapRoundRobin, &m); err == nil {
			t.Error("unknown partition should fail")
		}
	}})
}

func TestMapClear(t *testing.T) {
	var m Map
	m.add(1, 2, 3)
	if len(m.Targets()) != 3 {
		t.Fatalf("len = %d", len(m.Targets()))
	}
	m.Clear()
	if m.Targets() != nil {
		t.Fatal("clear failed")
	}
}

// Property: for any partition sizes and default policy, the pivot protocol
// assigns every slave exactly one master, and the union of master target
// lists is exactly the slave set.
func TestMapCompletenessProperty(t *testing.T) {
	f := func(sl, ms uint8, pol uint8) bool {
		slaveN := int(sl%12) + 2
		masterN := int(ms%4) + 1
		if masterN >= slaveN {
			masterN = slaveN - 1
			if masterN < 1 {
				masterN = 1
			}
		}
		policy := Policy(int(pol) % 3)
		union := map[int]int{}
		slaveOK := true
		_, err := launch(
			progSpec{"slave", slaveN, func(s *Session) {
				var m Map
				if err := s.MapPartitions(1, policy, &m); err != nil || len(m.Targets()) != 1 {
					slaveOK = false
				}
			}},
			progSpec{"master", masterN, func(s *Session) {
				var m Map
				if err := s.MapPartitions(0, policy, &m); err != nil {
					slaveOK = false
					return
				}
				for _, g := range m.Targets() {
					union[g]++
				}
			}},
		)
		if err != nil || !slaveOK {
			return false
		}
		if len(union) != slaveN {
			return false
		}
		for g, n := range union {
			if n != 1 || g < 0 || g >= slaveN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- Streams ---

func TestStreamWriteReadPayload(t *testing.T) {
	var got []string
	runMPMD(t,
		progSpec{"w", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1024, BalanceRoundRobin)
			if err := st.OpenMap(&m, "w"); err != nil {
				t.Error(err)
				return
			}
			for _, msg := range []string{"alpha", "beta", "gamma"} {
				if err := st.Write([]byte(msg), int64(len(msg))); err != nil {
					t.Error(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
		progSpec{"r", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1024, BalanceRoundRobin)
			if err := st.OpenMap(&m, "r"); err != nil {
				t.Error(err)
				return
			}
			for {
				blk, err := st.Read(false)
				if err != nil {
					t.Error(err)
					return
				}
				if blk == nil {
					break
				}
				got = append(got, string(blk.Payload))
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
	)
	want := []string{"alpha", "beta", "gamma"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestStreamBlockSizeIsModelled: a block's size is its payload's modelled
// size, trace.BlockSize, exactly. A v1 pack of n events declaring 256-byte
// records holds 24+48n bytes and crosses as a block of 24+256n; Write
// refuses any other size for it, and for any other payload any size but
// its length.
func TestStreamBlockSizeIsModelled(t *testing.T) {
	const n, recordSize = 3, 256
	b := trace.NewPackBuilder(1, 0, recordSize, 1<<12)
	for i := 0; i < n; i++ {
		b.Add(&trace.Event{Kind: trace.KindSend, Peer: 1, Size: int64(i), TEnd: 1})
	}
	pack := b.Take()
	modelled := int64(trace.PackHeaderSize + n*recordSize)
	var got []*Block
	runMPMD(t,
		progSpec{"w", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1<<12, BalanceRoundRobin)
			if err := st.OpenMap(&m, "w"); err != nil {
				t.Error(err)
				return
			}
			for _, size := range []int64{int64(len(pack)), modelled - 1, modelled + 1} {
				if err := st.Write(pack, size); err == nil {
					t.Errorf("a v1 pack modelled at %d bytes was written as a block of %d", modelled, size)
				}
			}
			if err := st.Write([]byte("alpha"), 4); err == nil {
				t.Error("a 5-byte payload was written as a block of 4")
			}
			if err := st.Write(pack, modelled); err != nil {
				t.Error(err)
			}
			if err := st.Write([]byte("alpha"), 5); err != nil {
				t.Error(err)
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
		progSpec{"r", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1<<12, BalanceRoundRobin)
			if err := st.OpenMap(&m, "r"); err != nil {
				t.Error(err)
				return
			}
			for {
				blk, err := st.Read(false)
				if err != nil || blk == nil {
					if err != nil {
						t.Error(err)
					}
					break
				}
				got = append(got, blk)
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
	)
	if len(got) != 2 || got[0].Size != modelled || len(got[0].Payload) != trace.PackHeaderSize+n*trace.MinRecordSize || got[1].Size != 5 {
		t.Fatalf("received %d blocks; want the pack as %d bytes in a %d-byte payload, then 5 bytes", len(got), modelled, trace.PackHeaderSize+n*trace.MinRecordSize)
	}
	var d trace.StreamDecoder
	if k, err := d.DecodeDispatch(got[0].Payload, func(*trace.Event) {}); k != n || err != nil {
		t.Fatalf("decoded %d events (%v), want %d", k, err, n)
	}
}

func TestStreamBackpressureWindow(t *testing.T) {
	// A writer facing a reader that never reads can complete at most
	// NA blocks (per-endpoint window) before blocking; with a slow reader
	// it must record stalls.
	var stats StreamStats
	var readerBlocks int
	runMPMD(t,
		progSpec{"w", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1<<20, BalanceRoundRobin)
			if err := st.OpenMap(&m, "w"); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 20; i++ {
				if err := st.Write(nil, 1<<20); err != nil {
					t.Error(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
			stats = st.Stats()
		}},
		progSpec{"r", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1<<20, BalanceRoundRobin)
			if err := st.OpenMap(&m, "r"); err != nil {
				t.Error(err)
				return
			}
			for {
				s.Rank().Compute(10 * time.Millisecond) // slow consumer
				blk, err := st.Read(false)
				if err != nil {
					t.Error(err)
					return
				}
				if blk == nil {
					break
				}
				readerBlocks++
			}
		}},
	)
	if readerBlocks != 20 {
		t.Fatalf("reader got %d blocks", readerBlocks)
	}
	if stats.WriteStalls == 0 {
		t.Fatal("slow reader must cause write stalls (back-pressure)")
	}
	if stats.BlocksWritten != 20 {
		t.Fatalf("writer stats: %+v", stats)
	}
}

func TestStreamNonBlockingEAGAIN(t *testing.T) {
	var sawEagain bool
	var blocks int
	runMPMD(t,
		progSpec{"w", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 4096, BalanceNone)
			if err := st.OpenMap(&m, "w"); err != nil {
				t.Error(err)
				return
			}
			s.Rank().Compute(50 * time.Millisecond) // keep the reader starved
			if err := st.Write(nil, 4096); err != nil {
				t.Error(err)
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
		progSpec{"r", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 4096, BalanceNone)
			if err := st.OpenMap(&m, "r"); err != nil {
				t.Error(err)
				return
			}
			for {
				blk, err := st.Read(true)
				if err == ErrAgain {
					sawEagain = true
					s.Rank().Compute(5 * time.Millisecond)
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if blk == nil {
					break
				}
				blocks++
			}
		}},
	)
	if !sawEagain {
		t.Fatal("non-blocking read never returned EAGAIN")
	}
	if blocks != 1 {
		t.Fatalf("blocks = %d", blocks)
	}
}

func TestStreamFanInManyWriters(t *testing.T) {
	const writers = 5
	perWriter := map[int]int{}
	var total int64
	runMPMD(t,
		progSpec{"w", writers, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1<<16, BalanceRoundRobin)
			if err := st.OpenMap(&m, "w"); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 10; i++ {
				if err := st.Write(nil, 1<<16); err != nil {
					t.Error(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
		progSpec{"an", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1<<16, BalanceRoundRobin)
			if err := st.OpenMap(&m, "r"); err != nil {
				t.Error(err)
				return
			}
			for {
				blk, err := st.Read(false)
				if err != nil {
					t.Error(err)
					return
				}
				if blk == nil {
					break
				}
				perWriter[blk.From]++
				total += blk.Size
			}
		}},
	)
	if len(perWriter) != writers {
		t.Fatalf("blocks from %d writers, want %d", len(perWriter), writers)
	}
	for w, n := range perWriter {
		if n != 10 {
			t.Fatalf("writer %d delivered %d blocks", w, n)
		}
	}
	if total != writers*10*(1<<16) {
		t.Fatalf("total bytes = %d", total)
	}
}

func TestStreamRoundRobinSpreadsOverReaders(t *testing.T) {
	counts := make([]int, 2)
	runMPMD(t,
		progSpec{"w", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			// Writer partition is smaller: it is the master and maps to
			// both readers.
			st := NewStream(s, 4096, BalanceRoundRobin)
			if err := st.OpenMap(&m, "w"); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 12; i++ {
				if err := st.Write(nil, 4096); err != nil {
					t.Error(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
		progSpec{"r", 2, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 4096, BalanceRoundRobin)
			if err := st.OpenMap(&m, "r"); err != nil {
				t.Error(err)
				return
			}
			n := 0
			for {
				blk, err := st.Read(false)
				if err != nil {
					t.Error(err)
					return
				}
				if blk == nil {
					break
				}
				n++
			}
			counts[s.LocalRank()] = n
		}},
	)
	if counts[0] != 6 || counts[1] != 6 {
		t.Fatalf("round-robin writer should balance readers evenly, got %v", counts)
	}
}

func TestStreamBalanceNonePrefersFirstEndpoint(t *testing.T) {
	counts := make([]int, 2)
	runMPMD(t,
		progSpec{"w", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 4096, BalanceNone)
			if err := st.OpenMap(&m, "w"); err != nil {
				t.Error(err)
				return
			}
			// Only 2 writes: with credits available the none policy never
			// leaves the first endpoint.
			for i := 0; i < 2; i++ {
				if err := st.Write(nil, 4096); err != nil {
					t.Error(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
		progSpec{"r", 2, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 4096, BalanceNone)
			if err := st.OpenMap(&m, "r"); err != nil {
				t.Error(err)
				return
			}
			n := 0
			for {
				blk, err := st.Read(false)
				if err != nil {
					t.Error(err)
					return
				}
				if blk == nil {
					break
				}
				n++
			}
			counts[s.LocalRank()] = n
		}},
	)
	if counts[0] != 2 || counts[1] != 0 {
		t.Fatalf("none policy should stick to the first endpoint: %v", counts)
	}
}

func TestStreamUsageErrors(t *testing.T) {
	runMPMD(t,
		progSpec{"w", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 100, BalanceNone)
			if err := st.OpenMap(&m, "x"); err == nil {
				t.Error("invalid mode accepted")
			}
			if err := st.Write(nil, 10); err == nil {
				t.Error("write before open accepted")
			}
			if err := st.Close(); err == nil {
				t.Error("close before open accepted")
			}
			if err := st.OpenMap(&m, "w"); err != nil {
				t.Error(err)
				return
			}
			if err := st.OpenMap(&m, "w"); err == nil {
				t.Error("double open accepted")
			}
			if err := st.Write(nil, 1000); err == nil {
				t.Error("oversized block accepted")
			}
			if _, err := st.Read(false); err == nil {
				t.Error("read on writer accepted")
			}
			if err := st.Write(nil, 100); err != nil {
				t.Error(err)
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
		progSpec{"r", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 100, BalanceNone)
			if err := st.OpenMap(&m, "r"); err != nil {
				t.Error(err)
				return
			}
			for {
				blk, err := st.Read(false)
				if err != nil {
					t.Error(err)
					return
				}
				if blk == nil {
					break
				}
			}
		}},
	)
}

func TestStreamChannelsSeparate(t *testing.T) {
	// Two streams between the same pair on different channels must not mix.
	var gotA, gotB []int64
	runMPMD(t,
		progSpec{"w", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			a := NewStream(s, 4096, BalanceNone)
			b := NewStream(s, 4096, BalanceNone)
			b.SetChannel(1)
			if err := a.OpenMap(&m, "w"); err != nil {
				t.Error(err)
			}
			if err := b.OpenMap(&m, "w"); err != nil {
				t.Error(err)
			}
			a.Write(nil, 111)
			b.Write(nil, 222)
			a.Write(nil, 112)
			a.Close()
			b.Close()
		}},
		progSpec{"r", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			a := NewStream(s, 4096, BalanceNone)
			b := NewStream(s, 4096, BalanceNone)
			b.SetChannel(1)
			if err := a.OpenMap(&m, "r"); err != nil {
				t.Error(err)
			}
			if err := b.OpenMap(&m, "r"); err != nil {
				t.Error(err)
			}
			for {
				blk, err := a.Read(false)
				if err != nil {
					t.Error(err)
					return
				}
				if blk == nil {
					break
				}
				gotA = append(gotA, blk.Size)
			}
			for {
				blk, err := b.Read(false)
				if err != nil {
					t.Error(err)
					return
				}
				if blk == nil {
					break
				}
				gotB = append(gotB, blk.Size)
			}
		}},
	)
	if len(gotA) != 2 || gotA[0] != 111 || gotA[1] != 112 {
		t.Fatalf("channel 0 got %v", gotA)
	}
	if len(gotB) != 1 || gotB[0] != 222 {
		t.Fatalf("channel 1 got %v", gotB)
	}
}

func TestStreamDuplex(t *testing.T) {
	// Two single-rank partitions exchange N blocks in each direction over
	// one bidirectional stream ("streams can be either multi- or
	// uni-directional").
	const n = 10
	recv := map[string]int64{}
	duplexMain := func(name string, base int64) func(s *Session) {
		return func(s *Session) {
			var m Map
			target := 1 - s.PartitionID()
			if err := s.MapPartitions(target, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 4096, BalanceRoundRobin)
			if err := st.OpenMap(&m, "rw"); err != nil {
				t.Error(err)
				return
			}
			sent, got := 0, 0
			for sent < n || got < n {
				// Drain available blocks first so credits keep flowing
				// even when both sides are writing.
				for got < n {
					blk, err := st.Read(true)
					if err == ErrAgain {
						break
					}
					if err != nil {
						t.Error(err)
						return
					}
					if blk == nil {
						break
					}
					recv[name] += blk.Size
					got++
				}
				if sent < n {
					if err := st.Write(nil, base+int64(sent)); err != nil {
						t.Error(err)
						return
					}
					sent++
				} else if got < n {
					blk, err := st.Read(false)
					if err != nil {
						t.Error(err)
						return
					}
					if blk == nil {
						break
					}
					recv[name] += blk.Size
					got++
				}
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}
	}
	runMPMD(t,
		progSpec{"a", 1, duplexMain("a", 1000)},
		progSpec{"b", 1, duplexMain("b", 2000)},
	)
	// a received b's blocks (2000..2009), b received a's (1000..1009).
	wantA := int64(0)
	wantB := int64(0)
	for i := int64(0); i < n; i++ {
		wantA += 2000 + i
		wantB += 1000 + i
	}
	if recv["a"] != wantA || recv["b"] != wantB {
		t.Fatalf("duplex totals: a=%d (want %d) b=%d (want %d)", recv["a"], wantA, recv["b"], wantB)
	}
}

// Property: for random writer/reader counts and block counts, every byte
// written is read exactly once and per-pair block order is preserved.
func TestStreamConservationProperty(t *testing.T) {
	f := func(wN, rN, blocks uint8) bool {
		writers := int(wN%5) + 1
		readers := int(rN%3) + 1
		if readers > writers {
			readers = writers
		}
		nBlocks := int(blocks%12) + 1
		var wrote, read int64
		readOK := true
		_, err := launch(
			progSpec{"w", writers, func(s *Session) {
				var m Map
				if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
					readOK = false
					return
				}
				st := NewStream(s, 1<<16, BalanceRoundRobin)
				if err := st.OpenMap(&m, "w"); err != nil {
					readOK = false
					return
				}
				for i := 0; i < nBlocks; i++ {
					sz := int64(1000 + i)
					if err := st.Write(nil, sz); err != nil {
						readOK = false
					}
					wrote += sz
				}
				st.Close()
			}},
			progSpec{"r", readers, func(s *Session) {
				var m Map
				if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
					readOK = false
					return
				}
				st := NewStream(s, 1<<16, BalanceRoundRobin)
				if err := st.OpenMap(&m, "r"); err != nil {
					readOK = false
					return
				}
				next := map[int]int64{}
				for {
					blk, err := st.Read(false)
					if err != nil {
						readOK = false
						return
					}
					if blk == nil {
						break
					}
					// Per-writer sizes must arrive in write order.
					if want, ok := next[blk.From]; ok && blk.Size != want {
						readOK = false
					}
					next[blk.From] = blk.Size + 1
					read += blk.Size
				}
			}},
		)
		return err == nil && readOK && wrote == read
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamFanInBeyondExactPolicyLimit(t *testing.T) {
	// More writers than exactPolicyLimit per reader exercises the
	// arrival-order fast path.
	const writers = exactPolicyLimit + 8
	perWriter := map[int]int{}
	var total int64
	runMPMD(t,
		progSpec{"w", writers, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1<<14, BalanceRoundRobin)
			if err := st.OpenMap(&m, "w"); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 5; i++ {
				if err := st.Write(nil, 1<<14); err != nil {
					t.Error(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
		progSpec{"an", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1<<14, BalanceRoundRobin)
			if err := st.OpenMap(&m, "r"); err != nil {
				t.Error(err)
				return
			}
			for {
				blk, err := st.Read(false)
				if err != nil {
					t.Error(err)
					return
				}
				if blk == nil {
					break
				}
				perWriter[blk.From]++
				total += blk.Size
			}
		}},
	)
	if len(perWriter) != writers {
		t.Fatalf("blocks from %d writers, want %d", len(perWriter), writers)
	}
	for w, n := range perWriter {
		if n != 5 {
			t.Fatalf("writer %d delivered %d blocks", w, n)
		}
	}
	if total != int64(writers)*5*(1<<14) {
		t.Fatalf("total = %d", total)
	}
}

func TestStreamOpenRanksDirect(t *testing.T) {
	// "Streams can also be used between two arbitrary ranks": open by
	// universe rank without a map.
	var got int64
	runMPMD(t,
		progSpec{"a", 2, func(s *Session) {
			switch s.Rank().Global() {
			case 0:
				st := NewStream(s, 1024, BalanceNone)
				if err := st.OpenRanks([]int{1}, "w"); err != nil {
					t.Error(err)
					return
				}
				st.Write(nil, 777)
				st.Close()
			case 1:
				st := NewStream(s, 1024, BalanceNone)
				if err := st.OpenRanks([]int{0}, "r"); err != nil {
					t.Error(err)
					return
				}
				for {
					blk, err := st.Read(false)
					if err != nil {
						t.Error(err)
						return
					}
					if blk == nil {
						break
					}
					got = blk.Size
				}
			}
		}},
	)
	if got != 777 {
		t.Fatalf("got %d", got)
	}
	// Empty peer set rejected.
	st := NewStream(nil, 1024, BalanceNone)
	if err := st.OpenRanks(nil, "w"); err == nil {
		t.Fatal("empty peer set accepted")
	}
}
