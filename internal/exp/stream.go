package exp

import (
	"fmt"
	"io"

	"repro/internal/exp/runner"
	"repro/internal/mpi"
	"repro/internal/vmpi"
)

// StreamPoint is one measurement of the Figure 14 experiment: global VMPI
// stream throughput between a writer and a reader partition.
type StreamPoint struct {
	// Writers and Readers are the partition sizes; Ratio = Writers/Readers
	// as swept in the paper.
	Writers, Readers, Ratio int
	// Bytes is the total payload moved.
	Bytes int64
	// Seconds is the virtual time from job start to the last reader
	// drain.
	Seconds float64
	// Throughput is Bytes/Seconds.
	Throughput float64
	// FSShare is the paper's prorated filesystem bandwidth for the same
	// writer core count — the comparison line that yields the ≈9.1 GB/s
	// figure at 2560 cores.
	FSShare float64
	// WriteStalls counts writer-side back-pressure events.
	WriteStalls int64
}

// Readers computes the paper's reader count for a writer count and ratio:
// Nr = floor(Nw/ratio), minimum 1.
func Readers(writers, ratio int) int {
	nr := writers / ratio
	if nr < 1 {
		nr = 1
	}
	return nr
}

// StreamThroughput runs the coupling codes of the paper's Figures 11 and
// 12: `writers` processes each stream perWriter bytes in blockSize blocks
// to a reader partition sized by ratio, and the cumulative throughput is
// measured.
func StreamThroughput(p Platform, writers, ratio int, perWriter, blockSize int64) (StreamPoint, error) {
	readers := Readers(writers, ratio)
	blocks := int(perWriter / blockSize)
	if blocks < 1 {
		blocks = 1
	}
	run := &coupledRun{blockSize: blockSize}
	run.rawWriters(writers, nil, 0, func(_ *vmpi.Session, st *vmpi.Stream) error {
		for i := 0; i < blocks; i++ {
			if err := st.Write(nil, blockSize); err != nil {
				return err
			}
		}
		return nil
	})
	run.analyzer(readers, nil, false, func(*mpi.Rank, *vmpi.Session) (reader, error) {
		return reader{onBlock: func(blk *vmpi.Block) error {
			// The benchmark only counts bytes; recycle the payload so
			// writers draw from the shared pool instead of allocating.
			blk.Release()
			return nil
		}}, nil
	})
	run.build(p, 1)
	if err := run.run(); err != nil {
		return StreamPoint{}, err
	}
	total := int64(writers) * int64(blocks) * blockSize
	secs := run.world.ProgramFinish(1).Seconds()
	return StreamPoint{
		Writers: writers, Readers: readers, Ratio: ratio,
		Bytes: total, Seconds: secs,
		Throughput:  float64(total) / secs,
		FSShare:     p.FSShare(writers),
		WriteStalls: run.stalls,
	}, nil
}

// StreamSweepJ runs StreamThroughput over the cross product of writer
// counts and ratios (skipping ratios larger than the writer count) on j
// parallel workers (j <= 0 means GOMAXPROCS). Every grid point owns its
// simulation, so the output is byte-identical regardless of j.
func StreamSweepJ(p Platform, writerCounts, ratios []int, perWriter, blockSize int64, j int) ([]StreamPoint, error) {
	type gridPoint struct{ writers, ratio int }
	var grid []gridPoint
	for _, nw := range writerCounts {
		for _, ratio := range ratios {
			if ratio > nw {
				continue
			}
			grid = append(grid, gridPoint{nw, ratio})
		}
	}
	return runner.Run(len(grid), j, func(i int) (StreamPoint, error) {
		g := grid[i]
		pt, err := StreamThroughput(p, g.writers, g.ratio, perWriter, blockSize)
		if err != nil {
			return StreamPoint{}, fmt.Errorf("exp: stream point writers=%d ratio=%d: %w", g.writers, g.ratio, err)
		}
		return pt, nil
	})
}

// WriteStreamTable prints a sweep as the series of Figure 14.
func WriteStreamTable(w io.Writer, points []StreamPoint) {
	fmt.Fprintf(w, "# Figure 14: VMPI stream global throughput vs writer/reader ratio\n")
	fmt.Fprintf(w, "%8s %8s %6s %14s %14s %10s\n",
		"writers", "readers", "ratio", "GB/s", "fs-share GB/s", "stalls")
	for _, pt := range points {
		fmt.Fprintf(w, "%8d %8d %6d %14.2f %14.2f %10d\n",
			pt.Writers, pt.Readers, pt.Ratio, pt.Throughput/1e9, pt.FSShare/1e9, pt.WriteStalls)
	}
}
