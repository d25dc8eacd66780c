package instrument

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/vmpi"
)

// runRecorded runs one application rank, handed an online recorder of
// configuration cfg, against one analyzer rank that passes every received
// block to onBlock (which decides whether the pack goes back to the pool).
func runRecorded(t testing.TB, cfg OnlineConfig, app func(m *MPI, rec *OnlineRecorder), onBlock func(*vmpi.Block)) {
	t.Helper()
	var layout *vmpi.Layout
	w := mpi.NewWorld(mpi.DefaultConfig(),
		mpi.Program{Name: "app", Procs: 1, Main: func(r *mpi.Rank) {
			sess := layout.Init(r)
			rec, err := AttachOnline(sess, "Analyzer", cfg)
			if err != nil {
				t.Error(err)
				return
			}
			m := New(r, sess.WorldComm())
			m.SetRecorder(rec)
			app(m, rec)
		}},
		mpi.Program{Name: "Analyzer", Procs: 1, Main: func(r *mpi.Rank) {
			sess := layout.Init(r)
			var m vmpi.Map
			if err := sess.MapPartitions(0, vmpi.MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := vmpi.NewStream(sess, int64(cfg.PackBytes), vmpi.BalanceRoundRobin)
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
					return
				}
				onBlock(blk)
			}
		}},
	)
	layout = vmpi.NewLayout(w)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineRecorderStorageFollowsEvents: a recorder that records k
// events and finalizes allocates (and so zeroes) pack memory in proportion
// to k, not to the pack capacity, and asks the pool for a buffer only when
// a pack it ships grows — one fetch per growth step, never after its last
// flush.
func TestOnlineRecorderStorageFollowsEvents(t *testing.T) {
	recordSize := onlineCfg.RecordSize
	// growthSteps is how many pool buffers a pack of n bytes passes
	// through: the first 64 KiB, then one per doubling until it fits.
	growthSteps := func(n int) int64 {
		steps := int64(1)
		for c := 64 << 10; c < n; c *= 2 {
			steps++
		}
		return steps
	}
	for _, k := range []int{420, 5000} {
		packs, events := 0, 0
		var steps int64
		hits0, misses0 := trace.PoolCounters()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runRecorded(t, onlineCfg, func(_ *MPI, rec *OnlineRecorder) {
			ev := trace.Event{Kind: trace.KindSend, Peer: 1, Size: 8}
			for i := 0; i < k; i++ {
				rec.Record(&ev)
			}
			rec.Finalize()
		}, func(blk *vmpi.Block) {
			h, err := trace.PeekHeader(blk.Payload)
			if err != nil {
				t.Error(err)
			}
			packs++
			events += h.Count
			steps += growthSteps(len(blk.Payload))
		})
		runtime.ReadMemStats(&after)
		hits1, misses1 := trace.PoolCounters()
		if events != k {
			t.Fatalf("k=%d: analyzer received %d events", k, events)
		}
		// The whole run's heap allocation — simulator included — stays
		// under the pack-storage budget.
		allocated := after.TotalAlloc - before.TotalAlloc
		t.Logf("k=%d: %d packs, %d bytes allocated", k, packs, allocated)
		if limit := uint64(2*k*recordSize + 128<<10); allocated >= limit {
			t.Errorf("k=%d: run allocated %d bytes, want under %d", k, allocated, limit)
		}
		if gets := hits1 + misses1 - hits0 - misses0; gets != steps {
			t.Errorf("k=%d: %d pool fetches for %d shipped packs, want one per growth step (%d)", k, gets, packs, steps)
		}
	}
}

// TestEmitRecordZeroAllocs: in the steady state — mid-pack, storage grown
// — intercepting a call and recording its event allocates nothing: emit
// fills the handle's scratch event and the recorder encodes it in place.
func TestEmitRecordZeroAllocs(t *testing.T) {
	cfg := onlineCfg
	perPack := (cfg.PackBytes - trace.PackHeaderSize) / cfg.RecordSize
	allocs := -1.0
	runRecorded(t, cfg, func(m *MPI, _ *OnlineRecorder) {
		// Past the last growth step of the first pack, and far enough from
		// its end that the measured calls never flush.
		for i := 0; i < perPack/2+8; i++ {
			m.emit(trace.KindSend, 1, 0, 8, 0, 1)
		}
		allocs = testing.AllocsPerRun(perPack/4, func() {
			m.emit(trace.KindSend, 1, 0, 8, 0, 1)
		})
		m.Finalize()
	}, func(*vmpi.Block) {})
	if allocs != 0 {
		t.Errorf("emit → Record allocates %.2f per event in the steady state, want 0", allocs)
	}
}

// BenchmarkOnlineRecorderRecord times Record in wall-clock time at the
// default calibration (1 MiB packs, 256-byte records) for the fixed-record
// format and the persistent-dictionary column format: the cost meter, the
// pack encode, and the flush of each full pack into the stream. The
// analyzer releases every pack it receives, so storage cycles through the
// pool as in a profiled run. DESIGN §5 charges about 150 ns of virtual time
// per event for this path; EXPERIMENTS.md sets the two side by side.
func BenchmarkOnlineRecorderRecord(b *testing.B) {
	// Seven call sites per rank, as the engine benchmark's corpus cycles.
	events := make([]trace.Event, 7*1024)
	for i := range events {
		slot := i % 7
		events[i] = trace.Event{
			Kind: []trace.Kind{trace.KindIsend, trace.KindIrecv, trace.KindWait}[slot%3], Peer: int32(1 + slot/3),
			Tag: int32(100 + i/7%4), Comm: 1, Ctx: uint32(10 + slot), Size: int64(8192 << (i % 3)),
			TStart: int64(i)*1500 + int64(i*37%300), TEnd: int64(i)*1500 + 600 + int64(i*53%500),
		}
	}
	for _, version := range []int{trace.PackV1, trace.PackV3} {
		b.Run(fmt.Sprintf("v%d", version), func(b *testing.B) {
			cfg := onlineCfg
			cfg.PackVersion = version
			runRecorded(b, cfg, func(_ *MPI, rec *OnlineRecorder) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rec.Record(&events[i%len(events)])
				}
				b.StopTimer()
				rec.Finalize()
			}, (*vmpi.Block).Release)
		})
	}
}

// TestExchangeGroupZeroAllocs: a warm ExchangeGroup with 4 peers, and a
// warm pairwise Exchange, allocate nothing — the requests live in the
// handle's slab, the messages and events come from their free lists. 8
// ranks on a ring exchange with their neighbours at distance 1 and 2, then
// in pairs; differencing two run lengths cancels the world's setup and the
// slab's one allocation per handle. Before the slab a round read 9 (the
// group's 8 requests and their list; the pair's stayed on the stack).
func TestExchangeGroupZeroAllocs(t *testing.T) {
	const ranks, short, long = 8, 50, 550
	sizes := []int64{64, 64, 128, 128}
	total := func(rounds int) float64 {
		return testing.AllocsPerRun(1, func() {
			var comm *mpi.Comm
			w := mpi.NewWorld(mpi.DefaultConfig(), mpi.Program{Name: "app", Procs: ranks, Main: func(r *mpi.Rank) {
				m := New(r, comm)
				me := m.Rank()
				peers := []int{(me + 1) % ranks, (me + ranks - 1) % ranks, (me + 2) % ranks, (me + ranks - 2) % ranks}
				for i := 0; i < rounds; i++ {
					m.ExchangeGroup(peers, 7, sizes, 2)
					m.Exchange(me^1, 8, 64, 2)
				}
			}})
			comm = w.NewComm(w.ProgramRanks(0))
			if err := w.Run(); err != nil {
				t.Error(err)
			}
		})
	}
	if per := (total(long) - total(short)) / ((long - short) * ranks); per > 0.01 {
		t.Errorf("a warm 4-peer ExchangeGroup and a pairwise Exchange allocate %.3f objects per round, want 0", per)
	}
}
