package vmpi

import (
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/mpi"
)

// launchFaulty is launch with a fault-injection hook called between world
// construction and Run.
func launchFaulty(inject func(w *mpi.World), specs ...progSpec) (*Layout, error) {
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
	if inject != nil {
		inject(w)
	}
	return layout, w.Run()
}

func TestReaderCloseWakesBlockedWriter(t *testing.T) {
	// Satellite: a reader Close() must notify its writers (tagReaderClose)
	// so a writer blocked in the credit wait wakes up and degrades instead
	// of hanging forever.
	const blocks = 10
	var wstats, rstats StreamStats
	degraded := false
	_, err := launchFaulty(nil,
		progSpec{"writer", 1, func(s *Session) {
			st := NewStream(s, 1<<16, BalanceNone)
			if err := st.OpenRanks([]int{1}, "w"); err != nil {
				t.Error(err)
				return
			}
			for b := 0; b < blocks; b++ {
				if err := st.Write(nil, 1<<16); err != nil {
					t.Errorf("write %d: %v", b, err)
					return
				}
			}
			degraded = st.Degraded()
			if err := st.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			wstats = st.Stats()
		}},
		progSpec{"reader", 1, func(s *Session) {
			st := NewStream(s, 1<<16, BalanceNone)
			if err := st.OpenRanks([]int{0}, "r"); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 2; i++ {
				if _, err := st.Read(false); err != nil {
					t.Errorf("read %d: %v", i, err)
					return
				}
			}
			if err := st.Close(); err != nil {
				t.Errorf("reader close: %v", err)
			}
			rstats = st.Stats()
		}},
	)
	if err != nil {
		t.Fatalf("run: %v (writer-side deadlock on reader close?)", err)
	}
	if !degraded {
		t.Fatal("writer should be degraded after its only reader closed")
	}
	if wstats.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1", wstats.Quarantines)
	}
	if wstats.BlocksDropped == 0 {
		t.Fatal("writes after the reader close should be dropped, not blocked")
	}
	if wstats.BlocksWritten+wstats.BlocksDropped != blocks {
		t.Fatalf("written %d + dropped %d != %d", wstats.BlocksWritten, wstats.BlocksDropped, blocks)
	}
	if rstats.BlocksRead != 2 {
		t.Fatalf("reader BlocksRead = %d, want 2", rstats.BlocksRead)
	}
}

func TestWriterDegradesOnCrashedReader(t *testing.T) {
	// A crashed reader rank is detected without any deadline: the peer
	// sweep quarantines it and the stream degrades.
	const blocks = 8
	var wstats StreamStats
	degraded := false
	_, err := launchFaulty(
		func(w *mpi.World) { w.FailRank(des.DurationToTime(5*time.Millisecond), 1) },
		progSpec{"writer", 1, func(s *Session) {
			st := NewStream(s, 1<<16, BalanceNone)
			if err := st.OpenRanks([]int{1}, "w"); err != nil {
				t.Error(err)
				return
			}
			for b := 0; b < blocks; b++ {
				s.Rank().Compute(2 * time.Millisecond)
				if err := st.Write(nil, 1<<16); err != nil {
					t.Errorf("write %d: %v", b, err)
					return
				}
			}
			degraded = st.Degraded()
			if err := st.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			wstats = st.Stats()
		}},
		progSpec{"reader", 1, func(s *Session) {
			st := NewStream(s, 1<<16, BalanceNone)
			if err := st.OpenRanks([]int{0}, "r"); err != nil {
				t.Error(err)
				return
			}
			for {
				blk, err := st.Read(false)
				if err != nil || blk == nil {
					return
				}
			}
		}},
	)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !degraded {
		t.Fatal("writer should degrade once its only reader crashed")
	}
	if wstats.Quarantines != 1 || wstats.BlocksDropped == 0 {
		t.Fatalf("stats = %+v, want 1 quarantine and some drops", wstats)
	}
}

func TestWriteFailoverToSurvivingEndpoint(t *testing.T) {
	// Two mapped readers, BalanceNone (all traffic prefers reader 0).
	// Killing reader 0 mid-run must fail traffic over to reader 1.
	const blocks = 12
	var wstats StreamStats
	var survivorRead int64
	readerMain := func(s *Session) {
		st := NewStream(s, 1<<16, BalanceNone)
		if err := st.OpenRanks([]int{0}, "r"); err != nil {
			t.Error(err)
			return
		}
		for {
			blk, err := st.Read(false)
			if err != nil {
				t.Errorf("reader %d: %v", s.LocalRank(), err)
				return
			}
			if blk == nil {
				break
			}
			if s.Rank().Global() == 2 {
				survivorRead++
			}
		}
		if err := st.Close(); err != nil {
			t.Errorf("reader close: %v", err)
		}
	}
	_, err := launchFaulty(
		func(w *mpi.World) { w.FailRank(des.DurationToTime(6*time.Millisecond), 1) },
		progSpec{"writer", 1, func(s *Session) {
			st := NewStream(s, 1<<16, BalanceNone)
			if err := st.OpenRanks([]int{1, 2}, "w"); err != nil {
				t.Error(err)
				return
			}
			for b := 0; b < blocks; b++ {
				s.Rank().Compute(2 * time.Millisecond)
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
		progSpec{"reader", 2, readerMain},
	)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if wstats.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1 (the crashed reader)", wstats.Quarantines)
	}
	if wstats.Failovers == 0 {
		t.Fatal("no Failovers counted after the preferred endpoint died")
	}
	if wstats.BlocksDropped != 0 {
		t.Fatalf("BlocksDropped = %d; a surviving endpoint should absorb all traffic", wstats.BlocksDropped)
	}
	if wstats.BlocksWritten != blocks {
		t.Fatalf("BlocksWritten = %d, want %d", wstats.BlocksWritten, blocks)
	}
	if survivorRead == 0 {
		t.Fatal("surviving reader received nothing")
	}
}

func TestWriteDeadlineQuarantinesStalledReader(t *testing.T) {
	// The reader is alive but never serves the stream (a stalled, not
	// crashed, consumer). Only the write deadline can unblock the writer.
	runScenario := func(deadline time.Duration) (StreamStats, error) {
		var wstats StreamStats
		_, err := launchFaulty(nil,
			progSpec{"writer", 1, func(s *Session) {
				st := NewStream(s, 1<<16, BalanceNone)
				st.SetWriteDeadline(deadline)
				if err := st.OpenRanks([]int{1}, "w"); err != nil {
					t.Error(err)
					return
				}
				for b := 0; b < 6; b++ {
					if err := st.Write(nil, 1<<16); err != nil {
						t.Errorf("write %d: %v", b, err)
						return
					}
				}
				if err := st.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
				wstats = st.Stats()
				// Release the stalled reader so the world can terminate.
				s.Rank().Send(s.Universe(), 1, 999, 0, nil)
			}},
			progSpec{"reader", 1, func(s *Session) {
				st := NewStream(s, 1<<16, BalanceNone)
				if err := st.OpenRanks([]int{0}, "r"); err != nil {
					t.Error(err)
					return
				}
				// Stalled: never reads, blocks on an unrelated message.
				s.Rank().Recv(s.Universe(), 0, 999)
			}},
		)
		return wstats, err
	}

	wstats, err := runScenario(20 * time.Millisecond)
	if err != nil {
		t.Fatalf("run with deadline: %v", err)
	}
	if wstats.Quarantines != 1 || wstats.BlocksDropped == 0 {
		t.Fatalf("stats = %+v, want quarantine + drops from the deadline", wstats)
	}

	// Regression guard: the same scenario with no deadline is the seed
	// behavior — the writer parks in the credit wait forever and the
	// simulation deadlocks. The new write deadline is what prevents it.
	if _, err := runScenario(0); err == nil {
		t.Fatal("no-deadline stalled-consumer scenario should deadlock (seed behavior)")
	} else if _, ok := err.(*des.DeadlockError); !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
}

func TestStreamTinyWindowsUnderFailover(t *testing.T) {
	// Window edge case: na=1, naOut=1 leaves no slack at all — a single
	// in-flight block blocks the writer. Failover must still work.
	const blocks = 8
	var wstats StreamStats
	readerMain := func(s *Session) {
		st := NewStream(s, 1<<14, BalanceNone)
		if err := st.OpenRanks([]int{0}, "r"); err != nil {
			t.Error(err)
			return
		}
		for {
			blk, err := st.Read(false)
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			if blk == nil {
				break
			}
		}
		st.Close()
	}
	_, err := launchFaulty(
		func(w *mpi.World) { w.FailRank(des.DurationToTime(5*time.Millisecond), 1) },
		progSpec{"writer", 1, func(s *Session) {
			st := NewStream(s, 1<<14, BalanceNone)
			st.RequestWindow(1)
			st.SetWriteDeadline(20 * time.Millisecond)
			if err := st.OpenRanks([]int{1, 2}, "w"); err != nil {
				t.Error(err)
				return
			}
			for b := 0; b < blocks; b++ {
				s.Rank().Compute(2 * time.Millisecond)
				if err := st.Write(nil, 1<<14); err != nil {
					t.Errorf("write %d: %v", b, err)
					return
				}
			}
			if err := st.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			wstats = st.Stats()
		}},
		progSpec{"reader", 2, readerMain},
	)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if wstats.Quarantines == 0 || wstats.Failovers == 0 {
		t.Fatalf("stats = %+v, want quarantine + failover under na=1/naOut=1", wstats)
	}
	if wstats.BlocksWritten+wstats.BlocksDropped != blocks {
		t.Fatalf("written %d + dropped %d != %d", wstats.BlocksWritten, wstats.BlocksDropped, blocks)
	}
}

func TestDuplexStreamPeerCrash(t *testing.T) {
	// A duplex ("rw") stream whose single peer crashes: the survivor's
	// writer half degrades and its reader half writes the dead peer off,
	// so both Read and Write terminate.
	var stats StreamStats
	sawEOF := false
	_, err := launchFaulty(
		func(w *mpi.World) { w.FailRank(des.DurationToTime(5*time.Millisecond), 1) },
		progSpec{"left", 1, func(s *Session) {
			st := NewStream(s, 1<<14, BalanceNone)
			if err := st.OpenRanks([]int{1}, "rw"); err != nil {
				t.Error(err)
				return
			}
			for b := 0; b < 6; b++ {
				s.Rank().Compute(2 * time.Millisecond)
				if err := st.Write(nil, 1<<14); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
			for {
				blk, err := st.Read(false)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if blk == nil {
					sawEOF = true
					break
				}
			}
			if err := st.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			stats = st.Stats()
		}},
		progSpec{"right", 1, func(s *Session) {
			st := NewStream(s, 1<<14, BalanceNone)
			if err := st.OpenRanks([]int{0}, "rw"); err != nil {
				t.Error(err)
				return
			}
			for b := 0; b < 6; b++ {
				s.Rank().Compute(time.Hour) // crashes long before finishing
				if err := st.Write(nil, 1<<14); err != nil {
					return
				}
			}
		}},
	)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !sawEOF {
		t.Fatal("survivor's Read never saw end-of-stream after the peer crash")
	}
	if stats.Quarantines == 0 {
		t.Fatalf("stats = %+v, want the dead peer quarantined/written off", stats)
	}
}

func TestExactPolicyLimitBoundaryWithCrashedWriter(t *testing.T) {
	// The reader's two data paths — per-endpoint policy probing (≤ 16
	// writers) and arrival-order service (> 16) — must both write a
	// crashed writer off and drain the survivors.
	for _, writers := range []int{exactPolicyLimit, exactPolicyLimit + 1} {
		writers := writers
		t.Run(map[int]string{exactPolicyLimit: "at-limit", exactPolicyLimit + 1: "beyond-limit"}[writers], func(t *testing.T) {
			const perWriter = 2
			var rstats StreamStats
			sawEOF := false
			writerMain := func(s *Session) {
				if s.LocalRank() == 0 {
					// The victim: killed before it writes anything.
					s.Rank().Compute(time.Hour)
					return
				}
				st := NewStream(s, 1<<14, BalanceNone)
				if err := st.OpenRanks([]int{writers}, "w"); err != nil {
					t.Error(err)
					return
				}
				for b := 0; b < perWriter; b++ {
					if err := st.Write(nil, 1<<14); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
				if err := st.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}
			_, err := launchFaulty(
				func(w *mpi.World) { w.FailRank(des.DurationToTime(time.Millisecond), 0) },
				progSpec{"writer", writers, writerMain},
				progSpec{"reader", 1, func(s *Session) {
					all := make([]int, writers)
					for i := range all {
						all[i] = i
					}
					st := NewStream(s, 1<<14, BalanceRoundRobin)
					if err := st.OpenRanks(all, "r"); err != nil {
						t.Error(err)
						return
					}
					for {
						blk, err := st.Read(false)
						if err != nil {
							t.Errorf("read: %v", err)
							return
						}
						if blk == nil {
							sawEOF = true
							break
						}
					}
					st.Close()
					rstats = st.Stats()
				}},
			)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !sawEOF {
				t.Fatal("reader never saw end-of-stream")
			}
			want := int64(perWriter * (writers - 1))
			if rstats.BlocksRead != want {
				t.Fatalf("BlocksRead = %d, want %d (all survivors drained)", rstats.BlocksRead, want)
			}
			if rstats.Quarantines != 1 {
				t.Fatalf("Quarantines = %d, want 1 (the crashed writer written off)", rstats.Quarantines)
			}
		})
	}
}

func TestUnmappedControlTrafficIsAnError(t *testing.T) {
	// Satellite: control messages from outside the mapping used to panic
	// in drainCredits/awaitCredit; they must now surface as errors from
	// Write.
	var writeErr error
	_, err := launchFaulty(nil,
		progSpec{"writer", 1, func(s *Session) {
			st := NewStream(s, 1<<14, BalanceNone)
			if err := st.OpenRanks([]int{1}, "w"); err != nil {
				t.Error(err)
				return
			}
			s.Rank().Compute(10 * time.Millisecond) // let the rogue credit land
			writeErr = st.Write(nil, 1<<14)
		}},
		progSpec{"reader", 1, func(s *Session) {
			st := NewStream(s, 1<<14, BalanceNone)
			if err := st.OpenRanks([]int{0}, "r"); err != nil {
				t.Error(err)
				return
			}
			// Consume whatever arrives so the writer can close freely.
		}},
		progSpec{"rogue", 1, func(s *Session) {
			// A credit-tagged message from a rank the stream never mapped.
			s.Rank().Send(s.Universe(), 0, tagStreamBase+1, 0, nil)
		}},
	)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if writeErr == nil || !strings.Contains(writeErr.Error(), "unmapped rank") {
		t.Fatalf("Write err = %v, want unmapped-rank error", writeErr)
	}
}
