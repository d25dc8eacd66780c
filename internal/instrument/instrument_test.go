package instrument

import (
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/simfs"
	"repro/internal/trace"
	"repro/internal/vmpi"
)

// run2 executes a 2-rank single-program world where both ranks run main
// with an instrument.MPI over the program's communicator.
func run2(t *testing.T, main func(m *MPI)) {
	t.Helper()
	cfg := mpi.DefaultConfig()
	fscfg := simfs.DefaultConfig()
	cfg.FS = &fscfg
	var comm *mpi.Comm
	w := mpi.NewWorld(cfg, mpi.Program{Name: "app", Procs: 2, Main: func(r *mpi.Rank) {
		main(New(r, comm))
	}})
	comm = w.NewComm(w.ProgramRanks(0))
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWrapperPassThroughWithoutRecorder(t *testing.T) {
	run2(t, func(m *MPI) {
		if m.Size() != 2 {
			t.Errorf("size = %d", m.Size())
		}
		if m.Rank() == 0 {
			m.Send(1, 3, 128)
		} else {
			src, sz := m.Recv(0, 3)
			if src != 0 || sz != 128 {
				t.Errorf("recv got src=%d sz=%d", src, sz)
			}
		}
		m.Barrier()
	})
}

func TestEventsRecordedPerCall(t *testing.T) {
	var recs [2]*NullRecorder
	run2(t, func(m *MPI) {
		rec := &NullRecorder{}
		recs[m.Rank()] = rec
		m.SetRecorder(rec)
		m.Init()
		if m.Rank() == 0 {
			m.Send(1, 0, 64)
		} else {
			m.Recv(0, 0)
		}
		m.Allreduce(8)
		m.Finalize()
	})
	// Each rank: Init + (Send|Recv) + Allreduce + Finalize = 4 events.
	for r, rec := range recs {
		if rec.EventsSeen != 4 {
			t.Fatalf("rank %d events = %d, want 4", r, rec.EventsSeen)
		}
	}
}

// captureRecorder keeps every event for inspection.
type captureRecorder struct {
	events []trace.Event
}

func (c *captureRecorder) Name() string           { return "capture" }
func (c *captureRecorder) Record(ev *trace.Event) { c.events = append(c.events, *ev) }
func (c *captureRecorder) Finalize()              {}
func (c *captureRecorder) BytesProduced() int64   { return 0 }
func (c *captureRecorder) byKind(k trace.Kind) int {
	n := 0
	for _, e := range c.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func TestEventFieldsFaithful(t *testing.T) {
	var cap0 captureRecorder
	run2(t, func(m *MPI) {
		if m.Rank() == 0 {
			m.SetRecorder(&cap0)
			m.SetContext(7)
			m.Compute(time.Millisecond)
			m.Send(1, 42, 4096)
		} else {
			m.Recv(0, 42)
		}
	})
	if len(cap0.events) != 1 {
		t.Fatalf("events = %d", len(cap0.events))
	}
	e := cap0.events[0]
	if e.Kind != trace.KindSend || e.Peer != 1 || e.Tag != 42 || e.Size != 4096 || e.Ctx != 7 {
		t.Fatalf("event = %+v", e)
	}
	if e.TStart < int64(time.Millisecond) || e.TEnd < e.TStart {
		t.Fatalf("timestamps wrong: %+v", e)
	}
}

func TestWaitRecordsBlockingTime(t *testing.T) {
	var cap1 captureRecorder
	run2(t, func(m *MPI) {
		if m.Rank() == 0 {
			m.Compute(20 * time.Millisecond)
			m.Send(1, 0, 8)
		} else {
			m.SetRecorder(&cap1)
			req := m.Irecv(0, 0)
			m.Wait(req)
		}
	})
	var waitEv *trace.Event
	for i := range cap1.events {
		if cap1.events[i].Kind == trace.KindWait {
			waitEv = &cap1.events[i]
		}
	}
	if waitEv == nil {
		t.Fatal("no wait event")
	}
	if waitEv.Duration() < int64(19*time.Millisecond) {
		t.Fatalf("wait duration %v should reflect blocking", time.Duration(waitEv.Duration()))
	}
}

func TestExchangeSampledEventVolume(t *testing.T) {
	var caps [2]captureRecorder
	run2(t, func(m *MPI) {
		m.SetRecorder(&caps[m.Rank()])
		peer := 1 - m.Rank()
		m.Exchange(peer, 5, 1000, 8)
	})
	for r := range caps {
		c := &caps[r]
		if got := c.byKind(trace.KindIsend); got != 8 {
			t.Fatalf("rank %d isend events = %d, want 8", r, got)
		}
		if got := c.byKind(trace.KindIrecv); got != 8 {
			t.Fatalf("rank %d irecv events = %d, want 8", r, got)
		}
		if got := c.byKind(trace.KindWaitall); got != 1 {
			t.Fatalf("rank %d waitall events = %d, want 1", r, got)
		}
		var bytes int64
		for _, e := range c.events {
			if e.Kind == trace.KindIsend {
				bytes += e.Size
			}
		}
		if bytes != 8000 {
			t.Fatalf("rank %d isend bytes = %d", r, bytes)
		}
	}
}

func TestCallProfileAggregation(t *testing.T) {
	p := make(CallProfile)
	p.Add(&trace.Event{Kind: trace.KindSend, Size: 100, TStart: 0, TEnd: 50})
	p.Add(&trace.Event{Kind: trace.KindSend, Size: 200, TStart: 10, TEnd: 30})
	p.Add(&trace.Event{Kind: trace.KindBarrier, TStart: 0, TEnd: 5})
	if st := p[trace.KindSend]; st.Hits != 2 || st.Bytes != 300 || st.TimeNs != 70 {
		t.Fatalf("send stats = %+v", st)
	}
	if len(p.Kinds()) != 2 {
		t.Fatalf("kinds = %v", p.Kinds())
	}
}

func TestProfileRecorderChargesCost(t *testing.T) {
	var finish [2]float64
	const events = 10000
	run2(t, func(m *MPI) {
		if m.Rank() == 0 {
			rec := NewProfileRecorder(m.MPIRank(), nil, "prof", ProfileConfig{PerEventCost: time.Microsecond})
			m.SetRecorder(rec)
			for i := 0; i < events; i++ {
				m.PosixWrite(10, 0)
			}
			m.Finalize()
			finish[0] = m.Wtime()
			if rec.Profile()[trace.KindPosixWrite].Hits != events {
				t.Errorf("profile hits = %d", rec.Profile()[trace.KindPosixWrite].Hits)
			}
		}
	})
	// 10k events at 1 us each = 10 ms of charged instrumentation time.
	if finish[0] < 0.010 {
		t.Fatalf("finish = %v s, cost not charged", finish[0])
	}
}

func TestTraceRecorderWritesThroughFS(t *testing.T) {
	cfg := mpi.DefaultConfig()
	fscfg := simfs.DefaultConfig().Prorate(2, 140000) // tiny share: visible stalls
	cfg.FS = &fscfg
	var comm *mpi.Comm
	var produced [2]int64
	var stalled time.Duration
	var set *SIONSet
	w := mpi.NewWorld(cfg, mpi.Program{Name: "app", Procs: 2, Main: func(r *mpi.Rank) {
		m := New(r, comm)
		rec := NewTraceRecorder(r, r.World().FS(), set, TraceConfig{
			RecordSize:   80,
			BufferBytes:  8000, // flush every 100 events
			PerEventCost: 0,
		})
		m.SetRecorder(rec)
		for i := 0; i < 1000; i++ {
			m.PosixWrite(1, 0)
		}
		m.Finalize()
		// A recorder counts bytes only once the filesystem took them.
		produced[r.ProgramRank()] = rec.BytesProduced()
		if r.ProgramRank() == 0 {
			stalled = rec.Stalled()
		}
	}})
	comm = w.NewComm(w.ProgramRanks(0))
	set = NewSIONSet(w.FS(), 2, "trace")
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if produced[0] != 80*1001 { // 1000 posix writes + MPI_Finalize
		t.Fatalf("produced = %d", produced[0])
	}
	if stalled == 0 {
		t.Fatal("starved filesystem should cause stalls")
	}
	if set.Files() != 1 {
		t.Fatalf("SION set should aggregate 2 ranks into 1 file, got %d", set.Files())
	}
	if produced[0]+produced[1] != 2*80*1001 {
		t.Fatalf("fs bytes = %d", produced[0]+produced[1])
	}
}

func TestSIONSetAggregation(t *testing.T) {
	fs := simfs.New(simfs.DefaultConfig())
	set := NewSIONSet(fs, 4, "t")
	fdA, _ := set.FD(0, 0)
	fdB, _ := set.FD(3, 0)
	fdC, _ := set.FD(4, 0)
	if fdA != fdB {
		t.Fatal("ranks 0 and 3 should share a file")
	}
	if fdA == fdC {
		t.Fatal("rank 4 should get a new file")
	}
	if set.Files() != 2 {
		t.Fatalf("files = %d", set.Files())
	}
	// ranksPerFile < 1 clamps to per-rank files.
	set2 := NewSIONSet(fs, 0, "u")
	a, _ := set2.FD(0, 0)
	b, _ := set2.FD(1, 0)
	if a == b {
		t.Fatal("per-rank layout should separate files")
	}
}

func TestOnlineRecorderEndToEnd(t *testing.T) {
	cfg := mpi.DefaultConfig()
	var layout *vmpi.Layout
	var gotPacks int
	var gotEvents int
	var produced int64
	w := mpi.NewWorld(cfg,
		mpi.Program{Name: "app", Procs: 2, Main: func(r *mpi.Rank) {
			sess := layout.Init(r)
			m := New(r, sess.WorldComm())
			ocfg := DefaultOnlineConfig(uint32(sess.PartitionID()))
			ocfg.PackBytes = 2048
			ocfg.RecordSize = 64
			rec, err := AttachOnline(sess, "Analyzer", ocfg)
			if err != nil {
				t.Error(err)
				return
			}
			m.SetRecorder(rec)
			peer := 1 - m.Rank()
			for i := 0; i < 50; i++ {
				m.Exchange(peer, 0, 100, 1)
			}
			m.Finalize()
			if r.ProgramRank() == 0 {
				produced = rec.BytesProduced()
			}
		}},
		mpi.Program{Name: "Analyzer", Procs: 1, Main: func(r *mpi.Rank) {
			sess := layout.Init(r)
			var m vmpi.Map
			for pid := 0; pid < sess.Layout().PartitionCount(); pid++ {
				if pid == sess.PartitionID() {
					continue
				}
				if err := sess.MapPartitions(pid, vmpi.MapRoundRobin, &m); err != nil {
					t.Error(err)
					return
				}
			}
			st := vmpi.NewStream(sess, 2048, vmpi.BalanceRoundRobin)
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
				gotPacks++
				if _, err := trace.DecodeEach(blk.Payload, func(e *trace.Event) { gotEvents++ }); err != nil {
					t.Error(err)
					return
				}
			}
		}},
	)
	layout = vmpi.NewLayout(w)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// 50 exchanges → 50×(isend+irecv+waitall) = 150 events per rank, plus
	// MPI_Finalize = 151, two ranks.
	if gotEvents != 302 {
		t.Fatalf("analyzer decoded %d events, want 302", gotEvents)
	}
	if gotPacks < 2 {
		t.Fatalf("expected multiple packs, got %d", gotPacks)
	}
	if produced == 0 {
		t.Fatal("producer accounted no bytes")
	}
}

func TestOnlineRecorderSizeOnly(t *testing.T) {
	cfg := mpi.DefaultConfig()
	var layout *vmpi.Layout
	var bytes int64
	w := mpi.NewWorld(cfg,
		mpi.Program{Name: "app", Procs: 1, Main: func(r *mpi.Rank) {
			sess := layout.Init(r)
			m := New(r, sess.WorldComm())
			ocfg := DefaultOnlineConfig(0)
			ocfg.SizeOnly = true
			ocfg.PackBytes = 1024
			rec, err := AttachOnline(sess, "Analyzer", ocfg)
			if err != nil {
				t.Error(err)
				return
			}
			m.SetRecorder(rec)
			for i := 0; i < 100; i++ {
				m.PosixRead(5, 0)
			}
			m.Finalize()
		}},
		mpi.Program{Name: "Analyzer", Procs: 1, Main: func(r *mpi.Rank) {
			sess := layout.Init(r)
			var m vmpi.Map
			if err := sess.MapPartitions(0, vmpi.MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := vmpi.NewStream(sess, 1024, vmpi.BalanceRoundRobin)
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
				if blk.Payload != nil {
					t.Error("size-only blocks must carry no payload")
				}
				bytes += blk.Size
			}
		}},
	)
	layout = vmpi.NewLayout(w)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if bytes == 0 {
		t.Fatal("no bytes accounted")
	}
}

func TestScalascaCostsMoreThanProfile(t *testing.T) {
	// Same workload, two recorders: Scalasca's per-event cost must exceed
	// the flat profile's.
	runWith := func(mk func(r *mpi.Rank) Recorder) float64 {
		var finish float64
		var comm *mpi.Comm
		w := mpi.NewWorld(mpi.DefaultConfig(), mpi.Program{Name: "app", Procs: 1, Main: func(r *mpi.Rank) {
			m := New(r, comm)
			m.SetRecorder(mk(r))
			for i := 0; i < 100000; i++ {
				m.PosixWrite(1, 0)
			}
			m.Finalize()
			finish = m.Wtime()
		}})
		comm = w.NewComm(w.ProgramRanks(0))
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return finish
	}
	prof := runWith(func(r *mpi.Rank) Recorder { return NewProfileRecorder(r, nil, "p", DefaultProfileConfig()) })
	scal := runWith(func(r *mpi.Rank) Recorder { return NewScalascaRecorder(r, nil) })
	if scal <= prof {
		t.Fatalf("scalasca (%v) should cost more than profile (%v)", scal, prof)
	}
}
