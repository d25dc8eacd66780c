package instrument

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/simfs"
	"repro/internal/trace"
	"repro/internal/vmpi"
)

// onlineCfg is the recorder configuration the tests start from: 1 MB
// packs, 256-byte events (the 48-byte record plus call context) and 150 ns
// per intercepted event.
var onlineCfg = OnlineConfig{RecordSize: 256, PackBytes: 1 << 20, PerEventCost: 150 * time.Nanosecond}

func TestCostMeterBatchesAndSettles(t *testing.T) {
	var finish time.Duration
	var comm *mpi.Comm
	w := mpi.NewWorld(mpi.DefaultConfig(), mpi.Program{Name: "a", Procs: 1, Main: func(r *mpi.Rank) {
		cm := newCostMeter(r, time.Microsecond)
		// 5 charges = 5 us, below the 10 us grain: nothing applied yet.
		for i := 0; i < 5; i++ {
			cm.charge()
		}
		if r.Now() != 0 {
			t.Errorf("cost applied before grain: %v", r.Now())
		}
		// 5 more cross the grain: 10 us total applied.
		for i := 0; i < 5; i++ {
			cm.charge()
		}
		if r.Now().Duration() != 10*time.Microsecond {
			t.Errorf("after grain: %v", r.Now().Duration())
		}
		for i := 0; i < 7; i++ {
			cm.charge()
		}
		cm.settle()
		finish = r.Now().Duration()
	}})
	comm = w.NewComm(w.ProgramRanks(0))
	_ = comm
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if finish != 17*time.Microsecond {
		t.Fatalf("total charged = %v, want 17us", finish)
	}
}

func TestCostMeterZeroCostFree(t *testing.T) {
	w := mpi.NewWorld(mpi.DefaultConfig(), mpi.Program{Name: "a", Procs: 1, Main: func(r *mpi.Rank) {
		cm := newCostMeter(r, 0)
		for i := 0; i < 100; i++ {
			cm.charge()
		}
		cm.settle()
		if r.Now() != 0 {
			t.Errorf("zero-cost meter advanced time: %v", r.Now())
		}
	}})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAttachOnlineUnknownPartition(t *testing.T) {
	cfg := mpi.DefaultConfig()
	var layout *vmpi.Layout
	var gotErr error
	w := mpi.NewWorld(cfg, mpi.Program{Name: "app", Procs: 1, Main: func(r *mpi.Rank) {
		sess := layout.Init(r)
		_, gotErr = AttachOnline(sess, "NoSuchAnalyzer", onlineCfg)
	}})
	layout = vmpi.NewLayout(w)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Fatal("expected error for unknown analyzer partition")
	}
}

// TestAttachOnlineUnknownPackVersion: a pack version that names no format
// is refused before the map and the stream exist — the analyzer below sees
// no writer and the run ends clean — where it used to panic in the
// recorder's constructor, inside the simulator.
func TestAttachOnlineUnknownPackVersion(t *testing.T) {
	for _, v := range []int{9, -1} {
		var layout *vmpi.Layout
		var gotErr error
		w := mpi.NewWorld(mpi.DefaultConfig(),
			mpi.Program{Name: "app", Procs: 1, Main: func(r *mpi.Rank) {
				cfg := onlineCfg
				cfg.PackVersion = v
				_, gotErr = AttachOnline(layout.Init(r), "Analyzer", cfg)
			}},
			mpi.Program{Name: "Analyzer", Procs: 1, Main: func(r *mpi.Rank) { layout.Init(r) }})
		layout = vmpi.NewLayout(w)
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("unknown pack version %d", v); gotErr == nil || !strings.Contains(gotErr.Error(), want) {
			t.Errorf("AttachOnline(pack version %d) = %v, want %q", v, gotErr, want)
		}
	}
}

func TestOnlineRecorderSizeOnlyAccounting(t *testing.T) {
	// Size-only and payload modes must account identical byte volumes.
	volumes := map[bool]int64{}
	for _, sizeOnly := range []bool{false, true} {
		cfg := mpi.DefaultConfig()
		var layout *vmpi.Layout
		var produced int64
		var analyzerBytes int64
		w := mpi.NewWorld(cfg,
			mpi.Program{Name: "app", Procs: 1, Main: func(r *mpi.Rank) {
				sess := layout.Init(r)
				m := New(r, sess.WorldComm())
				ocfg := OnlineConfig{AppID: 0, RecordSize: 64, PackBytes: 1 << 12, PerEventCost: 0, SizeOnly: sizeOnly}
				rec, err := AttachOnline(sess, "Analyzer", ocfg)
				if err != nil {
					t.Error(err)
					return
				}
				m.SetRecorder(rec)
				for i := 0; i < 500; i++ {
					m.PosixWrite(1, 0)
				}
				m.Finalize()
				produced = rec.BytesProduced()
				if rec.Events() != 501 { // + MPI_Finalize
					t.Errorf("events = %d", rec.Events())
				}
			}},
			mpi.Program{Name: "Analyzer", Procs: 1, Main: func(r *mpi.Rank) {
				sess := layout.Init(r)
				var mp vmpi.Map
				if err := sess.MapPartitions(0, vmpi.MapRoundRobin, &mp); err != nil {
					t.Error(err)
					return
				}
				st := vmpi.NewStream(sess, 1<<12, vmpi.BalanceRoundRobin)
				if err := st.OpenMap(&mp, "r"); err != nil {
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
					analyzerBytes += blk.Size
					if sizeOnly && blk.Payload != nil {
						t.Error("size-only block carried payload")
					}
					if !sizeOnly && trace.BlockSize(blk.Payload) != blk.Size {
						t.Error("block size is not its payload's modelled size")
					}
				}
			}},
		)
		layout = vmpi.NewLayout(w)
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if produced != analyzerBytes {
			t.Fatalf("sizeOnly=%v: produced %d, analyzer saw %d", sizeOnly, produced, analyzerBytes)
		}
		volumes[sizeOnly] = produced
	}
	if volumes[true] != volumes[false] {
		t.Fatalf("size-only volume %d != payload volume %d", volumes[true], volumes[false])
	}
}

func TestOnlineRecorderFinalizeIdempotent(t *testing.T) {
	cfg := mpi.DefaultConfig()
	var layout *vmpi.Layout
	w := mpi.NewWorld(cfg,
		mpi.Program{Name: "app", Procs: 1, Main: func(r *mpi.Rank) {
			sess := layout.Init(r)
			rec, err := AttachOnline(sess, "Analyzer", onlineCfg)
			if err != nil {
				t.Error(err)
				return
			}
			rec.Record(&trace.Event{Kind: trace.KindSend, Size: 1})
			rec.Finalize()
			rec.Finalize() // second finalize must be a no-op, not a panic
		}},
		mpi.Program{Name: "Analyzer", Procs: 1, Main: func(r *mpi.Rank) {
			sess := layout.Init(r)
			var mp vmpi.Map
			if err := sess.MapPartitions(0, vmpi.MapRoundRobin, &mp); err != nil {
				t.Error(err)
				return
			}
			st := vmpi.NewStream(sess, exp1MB, vmpi.BalanceRoundRobin)
			if err := st.OpenMap(&mp, "r"); err != nil {
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
	layout = vmpi.NewLayout(w)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

const exp1MB = 1 << 20

func TestTraceRecorderNoFlushWithoutEvents(t *testing.T) {
	cfg := mpi.DefaultConfig()
	fscfg := simfs.DefaultConfig()
	cfg.FS = &fscfg
	var set *SIONSet
	w := mpi.NewWorld(cfg, mpi.Program{Name: "a", Procs: 1, Main: func(r *mpi.Rank) {
		rec := NewTraceRecorder(r, r.World().FS(), set, DefaultTraceConfig())
		rec.Finalize() // nothing recorded: no file should be created
		if rec.BytesProduced() != 0 {
			t.Errorf("produced = %d", rec.BytesProduced())
		}
	}})
	set = NewSIONSet(w.FS(), 32)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(set.fds) != 0 {
		t.Fatalf("files = %d", len(set.fds))
	}
}

func TestProfileRecorderRootOnlyDump(t *testing.T) {
	cfg := mpi.DefaultConfig()
	fscfg := simfs.DefaultConfig()
	cfg.FS = &fscfg
	var comm *mpi.Comm
	var produced [2]int64
	w := mpi.NewWorld(cfg, mpi.Program{Name: "a", Procs: 2, Main: func(r *mpi.Rank) {
		m := New(r, comm)
		rec := NewProfileRecorder(r, r.World().FS(), "p", DefaultProfileConfig())
		m.SetRecorder(rec)
		m.PosixWrite(1, 0)
		m.Finalize()
		produced[r.ProgramRank()] = rec.BytesProduced()
	}})
	comm = w.NewComm(w.ProgramRanks(0))
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if produced[0] == 0 || produced[1] != 0 {
		t.Fatalf("dump should be root-only: %v", produced)
	}
	// Descriptors are handed out in creation order, so the next one is the
	// number of files the run created.
	if fd, _ := w.FS().Create(0); fd != 1 {
		t.Fatalf("files = %d", fd)
	}
}

func TestDefaultConfigsSane(t *testing.T) {
	if c := DefaultTraceConfig(); c.BufferBytes != 4<<20 || traceRecordSize != 80 {
		t.Fatalf("trace config = %+v, record size %d", c, traceRecordSize)
	}
	if c := DefaultProfileConfig(); c.DumpBytes != 64<<10 {
		t.Fatalf("profile config = %+v", c)
	}
}

func TestScalascaRecorderNamed(t *testing.T) {
	w := mpi.NewWorld(mpi.DefaultConfig(), mpi.Program{Name: "a", Procs: 1, Main: func(r *mpi.Rank) {
		rec := NewScalascaRecorder(r, nil)
		if rec.name != "scalasca" {
			t.Errorf("name = %s", rec.name)
		}
		rec.Record(&trace.Event{Kind: trace.KindSend, Size: 10})
		rec.Finalize()
		if rec.Profile()[trace.KindSend].Hits != 1 {
			t.Error("profile not updated")
		}
	}})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSubAndSplitShareRecorder(t *testing.T) {
	var comm *mpi.Comm
	recs := make([]*NullRecorder, 4)
	w := mpi.NewWorld(mpi.DefaultConfig(), mpi.Program{Name: "a", Procs: 4, Main: func(r *mpi.Rank) {
		m := New(r, comm)
		rec := &NullRecorder{}
		recs[m.Rank()] = rec
		m.SetRecorder(rec)
		sub := m.Split(m.Rank()%2, m.Rank())
		if sub == nil {
			t.Error("nil sub")
			return
		}
		if sub.Size() != 2 {
			t.Errorf("sub size = %d", sub.Size())
		}
		sub.Allreduce(8) // recorded through the shared recorder
		if got := m.Split(-1, 0); got != nil {
			t.Error("undefined color should give nil")
		}
	}})
	comm = w.NewComm(w.ProgramRanks(0))
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.EventsSeen != 1 {
			t.Fatalf("rank %d recorded %d events through sub-comm", i, rec.EventsSeen)
		}
	}
}

func TestOnlineRecorderFailoverKeepsStreaming(t *testing.T) {
	// One app rank mapped (round-robin) to analyzer rank 1, with analyzer
	// rank 2 as its failover endpoint. Killing the primary mid-run must
	// reroute packs to the survivor without abandoning the stream.
	cfg := mpi.DefaultConfig()
	var layout *vmpi.Layout
	var fellBack bool
	var stats vmpi.StreamStats
	var survivorBlocks int64
	analyzerMain := func(r *mpi.Rank) {
		sess := layout.Init(r)
		var mp vmpi.Map
		if err := sess.MapPartitions(0, vmpi.MapRoundRobin, &mp); err != nil {
			t.Error(err)
			return
		}
		// Failover means any app writer may appear here: read over the
		// full app partition, not just the mapped writers.
		st := vmpi.NewStream(sess, 1<<12, vmpi.BalanceRoundRobin)
		if err := st.OpenRanks(layout.Partition(0).Globals, "r"); err != nil {
			t.Error(err)
			return
		}
		for {
			blk, err := st.Read(false)
			if err != nil {
				t.Errorf("analyzer read: %v", err)
				return
			}
			if blk == nil {
				break
			}
			if r.Global() == 2 {
				survivorBlocks++
			}
		}
		st.Close()
	}
	w := mpi.NewWorld(cfg,
		mpi.Program{Name: "app", Procs: 1, Main: func(r *mpi.Rank) {
			sess := layout.Init(r)
			m := New(r, sess.WorldComm())
			ocfg := OnlineConfig{
				RecordSize: 64, PackBytes: 1 << 12, SizeOnly: true,
				FailoverEndpoints: 1,
			}
			rec, err := AttachOnline(sess, "Analyzer", ocfg)
			if err != nil {
				t.Error(err)
				return
			}
			m.SetRecorder(rec)
			for i := 0; i < 40; i++ {
				m.Compute(500 * time.Microsecond)
				for j := 0; j < 100; j++ {
					m.PosixWrite(1, 0)
				}
			}
			m.Finalize()
			fellBack = rec.FellBack()
			stats = rec.StreamStats()
		}},
		mpi.Program{Name: "Analyzer", Procs: 2, Main: analyzerMain},
	)
	layout = vmpi.NewLayout(w)
	w.FailRank(des.DurationToTime(5*time.Millisecond), 1)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if fellBack {
		t.Fatal("recorder fell back despite a surviving failover endpoint")
	}
	if stats.Quarantines != 1 || stats.Failovers == 0 {
		t.Fatalf("stats = %+v, want the primary quarantined and failovers counted", stats)
	}
	if survivorBlocks == 0 {
		t.Fatal("failover endpoint received no blocks")
	}
}

func TestOnlineRecorderFallsBackWhenAllAnalyzersDie(t *testing.T) {
	// Sole analyzer crashes mid-run: the recorder must stop streaming
	// instead of hanging or crashing the application.
	cfg := mpi.DefaultConfig()
	var layout *vmpi.Layout
	var fellBack bool
	var stats vmpi.StreamStats
	w := mpi.NewWorld(cfg,
		mpi.Program{Name: "app", Procs: 1, Main: func(r *mpi.Rank) {
			sess := layout.Init(r)
			m := New(r, sess.WorldComm())
			ocfg := OnlineConfig{
				RecordSize: 64, PackBytes: 1 << 12, SizeOnly: true,
				WriteDeadline: 50 * time.Millisecond,
			}
			rec, err := AttachOnline(sess, "Analyzer", ocfg)
			if err != nil {
				t.Error(err)
				return
			}
			m.SetRecorder(rec)
			for i := 0; i < 40; i++ {
				m.Compute(500 * time.Microsecond)
				for j := 0; j < 100; j++ {
					m.PosixWrite(1, 0)
				}
			}
			m.Finalize()
			fellBack = rec.FellBack()
			stats = rec.StreamStats()
		}},
		mpi.Program{Name: "Analyzer", Procs: 1, Main: func(r *mpi.Rank) {
			sess := layout.Init(r)
			var mp vmpi.Map
			if err := sess.MapPartitions(0, vmpi.MapRoundRobin, &mp); err != nil {
				t.Error(err)
				return
			}
			st := vmpi.NewStream(sess, 1<<12, vmpi.BalanceRoundRobin)
			if err := st.OpenMap(&mp, "r"); err != nil {
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
	layout = vmpi.NewLayout(w)
	w.FailRank(des.DurationToTime(5*time.Millisecond), 1)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !fellBack {
		t.Fatal("recorder kept streaming into a dead analyzer")
	}
	if stats.Quarantines != 1 || stats.BlocksDropped == 0 {
		t.Fatalf("stats = %+v, want quarantine + at least one dropped block", stats)
	}
}

// NewScalascaRecorder models Scalasca's runtime summarization: call-path
// management makes events dearer than a flat profile, and the final
// report is larger.
func NewScalascaRecorder(r *mpi.Rank, fs *simfs.FS) *ProfileRecorder {
	return NewProfileRecorder(r, fs, "scalasca", ProfileConfig{
		PerEventCost: 350 * time.Nanosecond,
		DumpBytes:    512 << 10,
	})
}
