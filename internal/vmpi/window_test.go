package vmpi

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/mpi"
)

// TestRequestWindowRaceWithWriters pins RequestWindow's memory model: a
// host-side goroutine (the adaptive controller on a blackboard worker)
// hammers the retarget knob while the simulation writes the stream, and
// every block still arrives exactly once. Fails under -race if the
// lazy-apply handoff ever touches non-atomic stream state from the host.
func TestRequestWindowRaceWithWriters(t *testing.T) {
	const blocks = 400
	streams := make(chan *Stream, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		var targets []*Stream
		for {
			select {
			case st := <-streams:
				targets = append(targets, st)
			case <-stop:
				return
			default:
			}
			for _, st := range targets {
				st.RequestWindow(1 + rng.Intn(8))
			}
		}
	}()

	var wstats, rstats StreamStats
	_, err := launch(
		progSpec{"w", 2, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1024, BalanceRoundRobin)
			streams <- st
			if err := st.OpenMap(&m, "w"); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < blocks; i++ {
				if err := st.Write(nil, 1024); err != nil {
					t.Error(err)
					return
				}
			}
			if err := st.Close(); err != nil {
				t.Error(err)
				return
			}
			if s.LocalRank() == 0 {
				wstats = st.Stats()
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
				blk.Release()
			}
			if err := st.Close(); err != nil {
				t.Error(err)
				return
			}
			rstats = st.Stats()
		}},
	)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rstats.BlocksRead != 2*blocks {
		t.Fatalf("reader saw %d blocks, want %d: resizes lost or duplicated traffic", rstats.BlocksRead, 2*blocks)
	}
	if wstats.BlocksWritten != blocks {
		t.Fatalf("writer 0 wrote %d, want %d", wstats.BlocksWritten, blocks)
	}
}

// TestRequestWindowAppliedAtWrite checks the lazy-apply semantics: the
// retarget lands at the top of the next Write, grows grant credits
// immediately, and shrinking below in-flight only defers (never corrupts)
// the credit ledger.
func TestRequestWindowAppliedAtWrite(t *testing.T) {
	var resizes int64
	var finalWindow int
	_, err := launch(
		progSpec{"w", 1, func(s *Session) {
			st := NewStream(s, 1024, BalanceNone)
			if err := st.OpenRanks([]int{1}, "w"); err != nil {
				t.Error(err)
				return
			}
			if st.na != NA {
				t.Errorf("initial window %d, want %d", st.na, NA)
			}
			st.RequestWindow(8)
			if st.na != NA {
				t.Error("window changed before the next Write: apply must be lazy")
			}
			if err := st.Write(nil, 1024); err != nil {
				t.Error(err)
				return
			}
			if st.na != 8 {
				t.Errorf("window %d after grow, want 8", st.na)
			}
			st.RequestWindow(0) // clamps to 1
			if err := st.Write(nil, 1024); err != nil {
				t.Error(err)
				return
			}
			if st.na != 1 {
				t.Errorf("window %d after shrink, want 1", st.na)
			}
			if err := st.Close(); err != nil {
				t.Error(err)
				return
			}
			resizes = st.Stats().WindowResizes
			finalWindow = st.na
		}},
		progSpec{"r", 1, func(s *Session) {
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
				blk.Release()
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if resizes != 2 {
		t.Fatalf("WindowResizes = %d, want 2", resizes)
	}
	if finalWindow != 1 {
		t.Fatalf("final window %d, want 1", finalWindow)
	}
}

// TestLossLedgerReconciliation is the drop-accounting satellite: under a
// fail-stop reader fault, every written block is accounted exactly once
// across the surviving reader's reads, the crashed reader's reads before
// death, and the writer's lost-in-flight write-offs — and every attempted
// write is either written or counted dropped. No silent loss, no double
// counting.
func TestLossLedgerReconciliation(t *testing.T) {
	const blocks = 40
	var wstats StreamStats
	var liveReads, deadReads int64
	_, err := launchFaulty(
		func(w *mpi.World) { w.FailRank(des.DurationToTime(5*time.Millisecond), 2) },
		progSpec{"writer", 1, func(s *Session) {
			st := NewStream(s, 1<<16, BalanceRoundRobin)
			if err := st.OpenRanks([]int{1, 2}, "w"); err != nil {
				t.Error(err)
				return
			}
			for b := 0; b < blocks; b++ {
				if err := st.Write(nil, 1<<16); err != nil {
					t.Errorf("write %d: %v", b, err)
					return
				}
			}
			if err := st.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			wstats = st.Stats()
		}},
		progSpec{"live", 1, func(s *Session) {
			st := NewStream(s, 1<<16, BalanceNone)
			if err := st.OpenRanks([]int{0}, "r"); err != nil {
				t.Error(err)
				return
			}
			for {
				blk, err := st.Read(false)
				if err != nil {
					t.Errorf("live read: %v", err)
					return
				}
				if blk == nil {
					break
				}
				blk.Release()
				liveReads++
			}
			if err := st.Close(); err != nil {
				t.Errorf("live close: %v", err)
			}
		}},
		progSpec{"dead", 1, func(s *Session) {
			st := NewStream(s, 1<<16, BalanceNone)
			if err := st.OpenRanks([]int{0}, "r"); err != nil {
				return
			}
			for {
				// A slow consumer: blocks pile up in flight, so the kill
				// strands some of them between injection and credit.
				s.Rank().Compute(2 * time.Millisecond)
				blk, err := st.Read(false)
				if err != nil || blk == nil {
					return
				}
				blk.Release()
				deadReads++ // survives the kill: last value before death
			}
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if wstats.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1 (the killed reader)", wstats.Quarantines)
	}
	if wstats.BlocksLostInFlight == 0 {
		t.Fatal("no lost-in-flight blocks: the kill landed after the drain?")
	}
	if got := liveReads + deadReads + wstats.BlocksLostInFlight; got != wstats.BlocksWritten {
		t.Fatalf("ledger leak: live %d + dead %d + lost %d = %d, want BlocksWritten %d",
			liveReads, deadReads, wstats.BlocksLostInFlight, got, wstats.BlocksWritten)
	}
	if got := wstats.BlocksWritten + wstats.BlocksDropped; got != blocks {
		t.Fatalf("attempted %d, written %d + dropped %d = %d",
			blocks, wstats.BlocksWritten, wstats.BlocksDropped, got)
	}
}
