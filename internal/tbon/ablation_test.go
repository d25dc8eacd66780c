package tbon_test

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/instrument"
	"repro/internal/mpi"
	"repro/internal/tbon"
	"repro/internal/trace"
)

// BenchmarkTBONVsStreams quantifies the paper's central architectural
// argument (§V): tree-based overlay networks (MRNet/GTI/Periscope-style)
// are efficient when data *reduces* on the way up, but funnel everything
// through the front-end when it does not — full event streams — whereas
// mapping applications onto all analysis processes maximizes the bisection
// bandwidth. Three sub-benchmarks at equal producer counts:
//
//   - profile-merge/tbon: per-rank MPI profiles reduced up a fanout-16
//     tree (the TBON sweet spot);
//   - events/tbon: unreducible event packs concatenated up the same tree
//     (the front-end NIC becomes the bottleneck);
//   - events/streams: the same event volume through VMPI streams into an
//     analysis partition (the paper's design).
func BenchmarkTBONVsStreams(b *testing.B) {
	const (
		producers = 128
		analyzers = 64 // two nodes' worth: the analysis partition spans
		// several NICs, which is exactly the bisection the TBON's single
		// front-end node cannot match.
		fanout  = 16
		waves   = 3
		perWave = 1 << 20 // 1 MB per producer per wave
	)
	p := exp.Tera100()

	runTBON := func(b *testing.B, filter tbon.Filter, payload func(rank, wave int) []byte) float64 {
		var comm *mpi.Comm
		var secs float64
		w := mpi.NewWorld(p.MPIConfig(producers), mpi.Program{Name: "tree", Procs: producers, Main: func(r *mpi.Rank) {
			node, err := tbon.New(r, comm, fanout)
			if err != nil {
				b.Error(err)
				return
			}
			node.ReduceStream(waves,
				func(wave int) []byte { return payload(r.Global(), wave) },
				filter, nil)
			if node.IsRoot() {
				secs = r.Now().Seconds()
			}
		}})
		comm = w.NewComm(w.ProgramRanks(0))
		if err := w.Run(); err != nil {
			b.Fatal(err)
		}
		return secs
	}

	var tbonProfile, tbonEvents, streamEvents float64

	b.Run("profile-merge/tbon", func(b *testing.B) {
		prof := make(instrument.CallProfile)
		prof.Add(&trace.Event{Kind: trace.KindSend, Size: 1024, TStart: 0, TEnd: 10})
		encoded := tbon.EncodeProfile(prof)
		for i := 0; i < b.N; i++ {
			tbonProfile = runTBON(b, tbon.MergeEncodedProfiles,
				func(_, _ int) []byte { return encoded })
		}
		b.ReportMetric(tbonProfile*1e3, "virtual-ms")
	})

	b.Run("events/tbon", func(b *testing.B) {
		concat := func(children [][]byte, own []byte) []byte {
			out := append([]byte(nil), own...)
			for _, c := range children {
				out = append(out, c...)
			}
			return out
		}
		block := make([]byte, perWave)
		for i := 0; i < b.N; i++ {
			tbonEvents = runTBON(b, concat, func(_, _ int) []byte { return block })
		}
		b.ReportMetric(tbonEvents*1e3, "virtual-ms")
	})

	b.Run("events/streams", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Same producers, same per-producer volume, into an analysis
			// partition sized at the paper's 1/16 trade-off.
			pt, err := exp.StreamThroughput(p, producers, producers/analyzers, waves*perWave, perWave)
			if err != nil {
				b.Fatal(err)
			}
			streamEvents = pt.Seconds
		}
		b.ReportMetric(streamEvents*1e3, "virtual-ms")
	})

	if tbonEvents > 0 && streamEvents > 0 {
		if streamEvents >= tbonEvents {
			b.Fatalf("streams (%.3fs) should beat the TBON funnel (%.3fs) on unreducible events",
				streamEvents, tbonEvents)
		}
		if tbonProfile >= tbonEvents {
			b.Fatalf("reducible profiles (%.3fs) should cross the TBON far faster than raw events (%.3fs)",
				tbonProfile, tbonEvents)
		}
	}
}
