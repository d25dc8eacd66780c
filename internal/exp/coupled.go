package exp

import (
	"errors"
	"fmt"

	"repro/internal/adapt"
	"repro/internal/instrument"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vmpi"
)

// coupledRun is the paper's coupling sequence (Figures 11 and 12), written
// once. Writer partitions — instrumented applications, or bare writers —
// each map onto the Analyzer partition and stream blocks to it; every
// analyzer rank maps every writer partition, opens one read stream over
// the merged map and reads until all its writers have closed. The
// experiments differ in what an analyzer does with a block (its reader),
// and are written as that: the world, the layout, the map and stream
// calls, the read loops and the run's first error are here and only here,
// so two experiments that claim the same simulation below the analyzer —
// a capture and a profile, a fault sweep's healthy baseline and an overhead
// run — make the same simulator calls by construction.
//
// Use: add the writer partitions (instrumented or rawWriters), then the
// analyzer, then any partition that is neither (the tree's aggregators,
// through program); build; schedule faults or attach telemetry on the
// world; run.
type coupledRun struct {
	// blockSize is the stream block (and pack) size of the data streams.
	blockSize int64
	// mayLose is set when a fault, a throttle or a write deadline is configured.
	mayLose bool
	// tee, when set, records every data block an analyzer takes, before its
	// reader gets it: a capture's copy (CaptureRun) or an archive's frame
	// (ProfileOptions.Export). Set it before run.
	tee func(src int, payload []byte) error

	programs []mpi.Program
	// writerParts counts the writer partitions, which are the first
	// programs: the partitions an analyzer maps.
	writerParts int
	// cores counts the writer and analyzer ranks, what the platform model
	// is sized for.
	cores int

	layout *vmpi.Layout
	world  *mpi.World
	// reported is the first error a rank returned from its main.
	reported error

	// probes holds one entry per instrumented rank that attached, in attach
	// order; stalls sums the raw writers' back-pressure events. Rank mains
	// execute one at a time on the simulator, so plain appends and sums
	// are safe.
	probes []*probe
	stalls int64
}

// probe is one instrumented rank's recorder, read after the run for the
// volume, event and per-stream loss accounting. gate is the rank's
// admission gate on adaptive runs.
type probe struct {
	app  string
	rank int
	rec  *instrument.OnlineRecorder
	gate *adapt.Gate
}

// instrumentedRank is what an instrumented rank keeps for the run: its
// interposed MPI handle, its recorder and its probe. An application's
// ranks take theirs from one slab.
type instrumentedRank struct {
	m   instrument.MPI
	rec instrument.OnlineRecorder
	pr  probe
}

// firstError picks a run's error: what a rank reported, else the
// simulation's. A rank that fails returns from its main with streams open,
// so its peers may then block for good — the deadlock the simulator
// reports is the consequence, the rank's error the cause.
func firstError(reported, sim error) error {
	if reported != nil {
		return reported
	}
	return sim
}

// packVersionOf resolves a pack-version argument: 0 is v1, anything else
// must name a format.
func packVersionOf(v int) (int, error) {
	if v == 0 {
		return trace.PackV1, nil
	}
	if v < trace.PackV1 || v > trace.PackV3 {
		return 0, fmt.Errorf("exp: unknown pack version %d", v)
	}
	return v, nil
}

// program adds a partition of procs ranks running main. The first error a
// main returns is the run's.
func (c *coupledRun) program(name string, procs int, main func(*mpi.Rank) error) {
	c.programs = append(c.programs, mpi.Program{
		Name: name, Procs: procs,
		Main: func(r *mpi.Rank) {
			if err := main(r); err != nil && c.reported == nil {
				c.reported = err
			}
		},
	})
}

// instrumented adds the applications, one writer partition each: every
// rank runs its workload under an online recorder attached to the Analyzer
// partition (instrument.AttachOnlineInto: map, write stream, recorder). cfg
// carries what the experiment chooses; the application id, the record and
// pack sizes and the calibrated capture cost are filled in here. attached,
// when non-nil, runs on the rank between the attach and the application's
// first event, and may return what to run after its last.
func (c *coupledRun) instrumented(workloads []*nas.Workload, cfg instrument.OnlineConfig,
	attached func(r *mpi.Rank, sess *vmpi.Session, pr *probe) (after func() error, err error)) error {
	version, err := packVersionOf(cfg.PackVersion)
	if err != nil {
		return err
	}
	cfg.PackVersion = version
	cfg.RecordSize = EventRecordSize
	cfg.PackBytes = int(c.blockSize)
	cfg.PerEventCost = OnlinePerEventCost
	for _, w := range workloads {
		c.writerParts++
		c.cores += w.Procs
		slab := make([]instrumentedRank, w.Procs)
		c.program(w.Name, w.Procs, func(r *mpi.Rank) error {
			ir := &slab[r.ProgramRank()]
			sess := c.layout.Init(r)
			m, rec, pr := &ir.m, &ir.rec, &ir.pr
			instrument.NewInto(m, r, sess.WorldComm())
			cfg := cfg
			cfg.AppID = uint32(sess.PartitionID())
			if err := instrument.AttachOnlineInto(rec, sess, "Analyzer", cfg); err != nil {
				return err
			}
			m.SetRecorder(rec)
			*pr = probe{app: w.Name, rank: sess.LocalRank(), rec: rec}
			c.probes = append(c.probes, pr)
			var after func() error
			if attached != nil {
				var err error
				if after, err = attached(r, sess, pr); err != nil {
					return err
				}
			}
			w.Run(m)
			if after != nil {
				return after()
			}
			return nil
		})
	}
	return nil
}

// rawWriters adds one writer partition of n ranks without an application
// (the writer code of Figure 11): each maps onto the Analyzer partition,
// opens a write stream over the map — announcing packFormat when it is
// above v1 — runs body on it and closes it.
func (c *coupledRun) rawWriters(n int, tel *telemetry.StreamMetrics, packFormat int, body func(sess *vmpi.Session, st *vmpi.Stream) error) {
	c.writerParts++
	c.cores += n
	c.program("writer", n, func(r *mpi.Rank) error {
		sess := c.layout.Init(r)
		an := sess.Layout().DescByName("Analyzer")
		var m vmpi.Map
		if err := sess.MapPartitions(an.ID, vmpi.MapRoundRobin, &m); err != nil {
			return err
		}
		st := vmpi.NewStream(sess, c.blockSize, vmpi.BalanceRoundRobin)
		st.SetTelemetry(tel)
		if packFormat > trace.PackV1 {
			st.SetPackFormat(packFormat)
		}
		if err := st.OpenMap(&m, "w"); err != nil {
			return err
		}
		if err := body(sess, st); err != nil {
			return err
		}
		err := st.Close()
		c.stalls += st.Stats().WriteStalls
		return err
	})
}

// polled is one open read stream and what its blocks go to. onBlock owns
// the block: it releases it, or hands it on.
type polled struct {
	st      *vmpi.Stream
	onBlock func(*vmpi.Block) error
}

// reader is what one analyzer rank does with its input: onBlock gets every
// block of the data stream. finish, when set, runs once the data stream has
// drained, before the streams close. side, when its stream is set, is a
// second stream served together with the data stream (the telemetry
// channel).
type reader struct {
	onBlock func(*vmpi.Block) error
	finish  func() error
	side    polled
}

// analyzer adds the Analyzer partition (the reader code of Figure 12).
// Each rank makes the additive map over every writer partition
// (multi-instrumentation, Figure 10) — and only those: a partition added
// later couples through streams of its own, not the mapping protocol —
// opens the data stream over it, asks start for its reader and serves it.
// With failover set the stream spans every writer rank, not just the
// mapped ones: any writer may fail over here. tel is nil-safe.
func (c *coupledRun) analyzer(ranks int, tel *telemetry.StreamMetrics, failover bool, start func(*mpi.Rank, *vmpi.Session) (reader, error)) {
	c.cores += ranks
	c.program("Analyzer", ranks, func(r *mpi.Rank) error {
		sess := c.layout.Init(r)
		var m vmpi.Map
		var writers []int
		for pid := 0; pid < c.writerParts; pid++ {
			if err := sess.MapPartitions(pid, vmpi.MapRoundRobin, &m); err != nil {
				return err
			}
			if failover {
				writers = append(writers, sess.Layout().Partition(pid).Globals...)
			}
		}
		st := vmpi.NewStream(sess, c.blockSize, vmpi.BalanceRoundRobin)
		// Read-side accounting closes the controller's backlog loop:
		// bytes_written - bytes_read is exactly the volume queued between
		// the writers and the analyzers.
		st.SetTelemetry(tel)
		var err error
		if failover {
			err = st.OpenRanks(writers, "r")
		} else {
			err = st.OpenMap(&m, "r")
		}
		if err != nil {
			return err
		}
		rd, err := start(r, sess)
		if err != nil {
			return err
		}
		if c.tee != nil {
			onBlock := rd.onBlock
			rd.onBlock = func(blk *vmpi.Block) error {
				if err := c.tee(blk.From, blk.Payload); err != nil {
					return err
				}
				return onBlock(blk)
			}
		}
		if rd.side.st == nil {
			err = drain(st, rd.onBlock)
		} else {
			err = poll(r, "analyzer read (data+telemetry)", polled{st, rd.onBlock}, rd.side)
		}
		if err != nil {
			return err
		}
		if rd.finish != nil {
			if err := rd.finish(); err != nil {
				return err
			}
		}
		if err := st.Close(); err != nil {
			return err
		}
		if rd.side.st != nil {
			return rd.side.st.Close()
		}
		return nil
	})
}

// drain is the blocking read loop of one stream: every block to onBlock,
// until every remote writer has closed.
func drain(st *vmpi.Stream, onBlock func(*vmpi.Block) error) error {
	for {
		blk, err := st.Read(false)
		if err != nil || blk == nil {
			return err
		}
		if err := onBlock(blk); err != nil {
			return err
		}
	}
}

// poll is the non-blocking read loop over several streams: each is served
// as its blocks arrive, in argument order within a pass, and the rank
// parks (what names the wait in a deadlock report) only when a whole pass
// found nothing. It returns once every stream has drained.
func poll(r *mpi.Rank, what string, streams ...polled) error {
	drained := make([]bool, len(streams))
	for open := len(streams); open > 0; {
		seq := r.ArrivalSeq()
		progress := false
		for i, s := range streams {
			if drained[i] {
				continue
			}
			blk, err := s.st.Read(true)
			switch {
			case err == nil && blk != nil:
				if err := s.onBlock(blk); err != nil {
					return err
				}
				progress = true
			case err == nil:
				drained[i] = true
				open--
				progress = true
			case !errors.Is(err, vmpi.ErrAgain):
				return err
			}
		}
		if !progress {
			r.WaitArrival(seq, what)
		}
	}
	return nil
}

// build creates the world and its layout on p. The network and filesystem
// model is sized for the writer and analyzer ranks whatever else was
// added: the tree's aggregator partition is an analysis-side topology
// change, and keeping the platform model fixed is what makes flat and tree
// profiles directly comparable.
func (c *coupledRun) build(p Platform, seed int64) {
	cfg := p.MPIConfig(c.cores)
	cfg.Seed = seed
	c.world = mpi.NewWorld(cfg, c.programs...)
	c.layout = vmpi.NewLayout(c.world)
}

// run executes the simulation and returns its first error, a rank's
// before the simulator's. Without mayLose nothing may lose events: a recorder
// that fell back, or a dropped or lost block, is then the run's error.
func (c *coupledRun) run() error {
	if err := firstError(c.reported, c.world.Run()); err != nil || c.mayLose {
		return err
	}
	for _, pr := range c.probes {
		if st, fell := pr.rec.StreamStats(), pr.rec.FellBack(); fell || st.BlocksDropped > 0 || st.BlocksLostInFlight > 0 {
			return fmt.Errorf("exp: %s rank %d lost events with no fault, throttle or write deadline configured (fell back %v, %d blocks dropped, %d lost in flight)",
				pr.app, pr.rank, fell, st.BlocksDropped, st.BlocksLostInFlight)
		}
	}
	return nil
}

// lossRows is the run's per-stream loss accounting, one row per
// instrumented rank in attach order.
func (c *coupledRun) lossRows() []report.StreamLossRow {
	var rows []report.StreamLossRow
	for _, pr := range c.probes {
		st := pr.rec.StreamStats()
		row := report.StreamLossRow{App: pr.app, Rank: pr.rank, Dropped: st.BlocksDropped, LostInFlight: st.BlocksLostInFlight}
		if pr.gate != nil {
			row.Shed = pr.gate.TotalShed()
		}
		rows = append(rows, row)
	}
	return rows
}
