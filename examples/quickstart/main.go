// Quickstart: the paper's Figures 11 and 12 as runnable code.
//
// One "writer" application partition and one "Analyzer" partition run in
// the same MPMD job. Each writer maps to the analyzer partition
// (round-robin), opens a VMPI stream over the map, and pushes 1 MB blocks;
// the analyzer opens the reverse stream and drains blocks until every
// writer closes. The program prints the achieved coupling throughput.
package main

import (
	"fmt"
	"log"

	"repro/internal/mpi"
	"repro/internal/vmpi"
)

const (
	writers       = 8
	blockSize     = 1 << 20 // 1 MB, as in the paper
	blocksPerRank = 64
	analyzerRanks = 2
)

func main() {
	log.SetFlags(0)
	var layout *vmpi.Layout
	var received int64

	world := mpi.NewWorld(mpi.DefaultConfig(),
		mpi.Program{Name: "writer", Procs: writers, Main: func(r *mpi.Rank) {
			sess := layout.Init(r) // the moral equivalent of MPI_Init under VMPI

			// Fill in mapping data (paper Figure 11).
			var m vmpi.Map
			m.Clear()
			an := sess.Layout().DescByName("Analyzer")
			if an == nil {
				log.Fatal("could not locate analyzer partition")
			}
			if err := sess.MapPartitions(an.ID, vmpi.MapRoundRobin, &m); err != nil {
				log.Fatal(err)
			}

			// Set up the stream and send data.
			st := vmpi.NewStream(sess, blockSize, vmpi.BalanceRoundRobin)
			if err := st.OpenMap(&m, "w"); err != nil {
				log.Fatal(err)
			}
			buf := make([]byte, blockSize)
			for i := 0; i < blocksPerRank; i++ {
				if err := st.Write(buf, blockSize); err != nil {
					log.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				log.Fatal(err)
			}
		}},
		mpi.Program{Name: "Analyzer", Procs: analyzerRanks, Main: func(r *mpi.Rank) {
			sess := layout.Init(r)

			// Map every other partition (paper Figure 12).
			var m vmpi.Map
			m.Clear()
			for pid := 0; pid < sess.Layout().PartitionCount(); pid++ {
				if pid != sess.PartitionID() {
					if err := sess.MapPartitions(pid, vmpi.MapRoundRobin, &m); err != nil {
						log.Fatal(err)
					}
				}
			}

			st := vmpi.NewStream(sess, blockSize, vmpi.BalanceRoundRobin)
			if err := st.OpenMap(&m, "r"); err != nil {
				log.Fatal(err)
			}
			for {
				blk, err := st.Read(false)
				if err != nil {
					log.Fatal(err)
				}
				if blk == nil {
					break // 0: all remote streams closed
				}
				received += blk.Size
			}
			if err := st.Close(); err != nil {
				log.Fatal(err)
			}
		}},
	)
	layout = vmpi.NewLayout(world)
	if err := world.Run(); err != nil {
		log.Fatal(err)
	}

	secs := world.ProgramFinish(1).Seconds()
	total := int64(writers) * blocksPerRank * blockSize
	fmt.Printf("streamed %d MB from %d writers to %d analyzers in %.3f virtual seconds (%.2f GB/s)\n",
		total>>20, writers, analyzerRanks, secs, float64(received)/secs/1e9)
	if received != total {
		log.Fatalf("lost data: received %d of %d bytes", received, total)
	}
}
