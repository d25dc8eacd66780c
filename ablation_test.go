package repro

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blackboard"
	"repro/internal/exp"
	"repro/internal/mpi"
	"repro/internal/vmpi"
)

// ablationStream runs a small writer/reader coupling with custom stream
// parameters and returns the achieved throughput in bytes/s. readerWork
// adds per-block consumer computation (a bursty reader), which is what the
// paper's adaptation window absorbs.
func ablationStream(b *testing.B, writers, readers int, blockSize int64, window int, policy vmpi.BalancePolicy, readerWork time.Duration) float64 {
	b.Helper()
	const perWriter = 8 << 20
	blocks := int(perWriter / blockSize)
	p := exp.Tera100()
	var layout *vmpi.Layout
	w := mpi.NewWorld(p.MPIConfig(writers+readers),
		mpi.Program{Name: "w", Procs: writers, Main: func(r *mpi.Rank) {
			sess := layout.Init(r)
			var m vmpi.Map
			if err := sess.MapPartitions(1, vmpi.MapRoundRobin, &m); err != nil {
				b.Error(err)
				return
			}
			st := vmpi.NewStream(sess, blockSize, policy)
			st.SetWindow(window, window)
			if err := st.OpenMap(&m, "w"); err != nil {
				b.Error(err)
				return
			}
			for i := 0; i < blocks; i++ {
				if err := st.Write(nil, blockSize); err != nil {
					b.Error(err)
					return
				}
			}
			st.Close()
		}},
		mpi.Program{Name: "r", Procs: readers, Main: func(r *mpi.Rank) {
			sess := layout.Init(r)
			var m vmpi.Map
			if err := sess.MapPartitions(0, vmpi.MapRoundRobin, &m); err != nil {
				b.Error(err)
				return
			}
			st := vmpi.NewStream(sess, blockSize, policy)
			st.SetWindow(window, window)
			if err := st.OpenMap(&m, "r"); err != nil {
				b.Error(err)
				return
			}
			for {
				blk, err := st.Read(false)
				if err != nil {
					b.Error(err)
					return
				}
				if blk == nil {
					break
				}
				if readerWork > 0 {
					// Bursty consumer: alternate heavy and free blocks.
					// Constant-rate consumers pipeline even with NA=1;
					// it is variance that the paper's adaptation window
					// absorbs.
					if st.Stats().BlocksRead%2 == 1 {
						r.Compute(2 * readerWork)
					}
				}
			}
		}},
	)
	layout = vmpi.NewLayout(w)
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
	total := float64(writers) * float64(blocks) * float64(blockSize)
	return total / w.ProgramFinish(1).Seconds()
}

// BenchmarkAblationStreamWindow varies the NA buffering window against a
// bursty reader that computes while blocks arrive. The paper fixes NA=3;
// the ablation shows why: NA=1 gives no adaptation window (transfer and
// consumption serialize), while beyond a few buffers the return vanishes.
func BenchmarkAblationStreamWindow(b *testing.B) {
	// One writer per reader; the reader burns ~2× the block transfer time
	// on every other block (bursty), so overlap is the whole game.
	const work = 400 * time.Microsecond
	results := map[int]float64{}
	for _, window := range []int{1, 2, 3, 8, 32} {
		window := window
		b.Run("NA="+itoa(window), func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				tp = ablationStream(b, 8, 8, 1<<20, window, vmpi.BalanceRoundRobin, work)
			}
			results[window] = tp
			b.ReportMetric(tp/1e9, "GB/s")
		})
	}
	if a, c := results[1], results[3]; a > 0 && c > 0 && c <= a {
		b.Fatalf("the paper's NA=3 window (%g) should beat NA=1 (%g): no adaptation window", c, a)
	}
	if c, z := results[3], results[32]; c > 0 && z > 0 && z > c*1.5 {
		b.Fatalf("NA=32 (%g) should not massively outperform NA=3 (%g)", z, c)
	}
}

// BenchmarkAblationBlockSize varies the stream block size. The paper uses
// ≈1 MB blocks; small blocks drown in per-message latency and protocol
// overhead.
func BenchmarkAblationBlockSize(b *testing.B) {
	results := map[int64]float64{}
	for _, bs := range []int64{4 << 10, 64 << 10, 1 << 20} {
		bs := bs
		b.Run("block="+itoa(int(bs>>10))+"KB", func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				tp = ablationStream(b, 64, 8, bs, vmpi.NA, vmpi.BalanceRoundRobin, 0)
			}
			results[bs] = tp
			b.ReportMetric(tp/1e9, "GB/s")
		})
	}
	if small, big := results[4<<10], results[1<<20]; small > 0 && big > 0 && big < small {
		b.Fatalf("1 MB blocks (%g) should beat 4 KB blocks (%g)", big, small)
	}
}

// BenchmarkAblationBalancePolicy compares the three writer-side balancing
// policies on a many-writers-to-few-readers coupling.
func BenchmarkAblationBalancePolicy(b *testing.B) {
	for _, pc := range []struct {
		name   string
		policy vmpi.BalancePolicy
	}{
		{"none", vmpi.BalanceNone},
		{"random", vmpi.BalanceRandom},
		{"round-robin", vmpi.BalanceRoundRobin},
	} {
		pc := pc
		b.Run(pc.name, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				tp = ablationStream(b, 64, 8, 1<<20, vmpi.NA, pc.policy, 0)
			}
			b.ReportMetric(tp/1e9, "GB/s")
		})
	}
}

// BenchmarkAblationBlackboardWorkers varies the worker-pool size on a
// fixed batch of compute-heavy jobs, showing the engine's natural
// parallelism (paper §II-B). One op is ~10 µs of arithmetic; each
// iteration pushes and drains 10 000 entries.
func BenchmarkAblationBlackboardWorkers(b *testing.B) {
	const batch = 2000
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			bb := blackboard.New(blackboard.Config{Workers: workers})
			defer bb.Close()
			typ := blackboard.TypeID("abl", "n")
			var sink atomic.Int64
			if err := bb.Register(blackboard.KS{
				Name:          "burn",
				Sensitivities: []blackboard.Type{typ},
				Op: func(_ *blackboard.Blackboard, in []*blackboard.Entry) {
					x := 1.0
					for i := 0; i < 200000; i++ {
						x += x * 1e-9
					}
					sink.Add(int64(x))
				},
			}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					bb.Post(typ, 0, nil)
				}
				bb.Drain()
			}
			b.StopTimer()
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}
