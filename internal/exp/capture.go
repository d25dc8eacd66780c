package exp

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/instrument"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/report"
	"repro/internal/vmpi"
	"repro/internal/wire"
)

// CapturedPack is one stream block as the analyzer partition received it:
// the writer's universe rank plus the pack bytes in the negotiated wire
// format. Captured in arrival order, which preserves each writer's pack
// order — the invariant the v3 stream-dictionary decode depends on.
type CapturedPack struct {
	Src  int
	Data []byte
}

// CaptureApp is one application's run facts, everything the daemon needs
// to head a report chapter: Labels names its call-site contexts when the
// call-site module is on.
type CaptureApp struct {
	Name     string
	Procs    int
	AppID    uint32
	Labels   map[uint32]string
	WallTime time.Duration
}

// Capture is a profiling run's full analyzer-side input, decoupled from
// the analysis: the packs the analyzer partition absorbed, per-writer,
// in order, plus the per-application metadata and per-stream loss
// accounting the report needs. A Capture is what a remote client replays
// to the profiling daemon, and what an archive records, which profiler
// -trace folds in a session of an in-process daemon: a daemon session
// analyzing a Capture produces a report byte-identical to ProfileRun
// analyzing the live streams, because the simulation below the analyzer
// absorb point is unchanged. Capture.analyse is the simulator's own fold
// of one, the flat reference the tree sweep compares against.
type Capture struct {
	// Title heads the report; it names the platform model.
	Title string
	// PackVersion is the highest wire format a captured pack uses.
	PackVersion int
	// Apps lists the applications in partition order (chapter order).
	Apps []CaptureApp
	// Packs holds the analyzer-bound stream blocks in arrival order.
	Packs []CapturedPack
	// Loss is the per-stream loss accounting in probe order.
	Loss []report.StreamLossRow
	// Events counts the events the recorders produced.
	Events int64
	// Options are the options the run was captured with: their module
	// selection and window geometry are what a replayed session enables.
	Options ProfileOptions
}

// CaptureRun executes the instrumented simulation of ProfileRun with the
// analysis taken out: the analyzer partition's tee copies every incoming
// block into the returned Capture, and the reader charges the block's
// modeled analysis cost. Both are one coupledRun under options resolved by
// one function, and the analysis engine is host-side in ProfileRun (its
// simulated analyzer only charges that same Compute time), so the captured
// packs, wall times and loss counters are exactly what the in-process
// pipeline would have seen (TestCaptureRunMatchesProfileRun).
//
// Options that require the in-process engine are rejected: Telemetry and
// Adaptive close loops through the live blackboard, trees reshape the
// transport below the capture point, and Export writes what the engine
// was fed.
func CaptureRun(p Platform, workloads []*nas.Workload, opts ProfileOptions) (*Capture, error) {
	co, err := opts.resolve(workloads)
	if err != nil {
		return nil, err
	}
	if opts.Telemetry || opts.Adaptive || opts.TreeLevels > 1 || opts.Export != nil {
		return nil, fmt.Errorf("exp: a capture tees a flat run's analyzer input and hosts no engine: no telemetry, adaptive loop, tree or export")
	}

	run := &coupledRun{blockSize: int64(co.packBytes), mayLose: co.mayLose}
	if err := run.instrumented(workloads, instrument.OnlineConfig{PackVersion: co.packVersion}, nil); err != nil {
		return nil, err
	}
	run.analyzer(co.analyzers, nil, false, func(r *mpi.Rank, _ *vmpi.Session) (reader, error) {
		return reader{onBlock: func(blk *vmpi.Block) error {
			r.Compute(co.cost(blk.Size))
			blk.Release()
			return nil
		}}, nil
	})
	run.build(p, 1)
	cp, err := run.newCapture(p, workloads, co.packVersion, opts)
	if err != nil {
		return nil, err
	}
	run.tee = func(src int, payload []byte) error {
		// The payload goes back to the pool: the capture keeps a copy.
		cp.Packs = append(cp.Packs, CapturedPack{Src: src, Data: bytes.Clone(payload)})
		return nil
	}
	if err := run.run(); err != nil {
		return nil, err
	}
	run.finishCapture(cp)
	return cp, nil
}

// newCapture heads a capture of the built run: its title, pack format and
// options, and each application's name, size, the id its packs carry and,
// with the call-site module on, its context labels. Wall times, loss and
// events follow the run (finishCapture).
func (c *coupledRun) newCapture(p Platform, workloads []*nas.Workload, packVersion int, opts ProfileOptions) (*Capture, error) {
	cp := &Capture{Title: fmt.Sprintf("online profiling report (%s)", p.Name), PackVersion: packVersion, Options: opts}
	var labels map[uint32]string
	if opts.Callsites {
		labels = nas.ContextLabels()
	}
	for _, w := range workloads {
		part := c.layout.DescByName(w.Name)
		if part == nil {
			return nil, fmt.Errorf("exp: partition %q missing", w.Name)
		}
		cp.Apps = append(cp.Apps, CaptureApp{Name: w.Name, Procs: w.Procs, AppID: uint32(part.ID), Labels: labels})
	}
	return cp, nil
}

// finishCapture records what the run left for cp: each application's wall
// time, the per-stream loss rows and the events the recorders produced.
func (c *coupledRun) finishCapture(cp *Capture) {
	for i := range cp.Apps {
		cp.Apps[i].WallTime = time.Duration(c.world.ProgramFinish(i).Duration())
	}
	cp.Loss = c.lossRows()
	for _, pr := range c.probes {
		cp.Events += pr.rec.Events()
	}
}

// SessionMeta builds the Register payload for the captured run: the same
// title, chapter order, module selection and call-site labels the
// in-process pipeline would use.
func (cp *Capture) SessionMeta() wire.SessionMeta {
	o := cp.Options
	m := wire.SessionMeta{
		Title:            cp.Title,
		WaitState:        o.WaitState,
		TemporalWindowNs: o.TemporalWindowNs,
		Callsites:        o.Callsites,
		Sizes:            o.Sizes,
		WindowNs:         o.WindowNs,
		WindowSlideNs:    o.WindowSlideNs,
		WindowGraceNs:    o.WindowGraceNs,
	}
	for _, a := range cp.Apps {
		m.Apps = append(m.Apps, wire.AppMeta{
			Name:   a.Name,
			Procs:  a.Procs,
			AppID:  a.AppID,
			Labels: a.Labels,
		})
	}
	return m
}

// CloseMeta builds the Close payload: per-application wall times and the
// per-stream loss accounting, the run facts only the client side knows.
func (cp *Capture) CloseMeta() wire.CloseMeta {
	m := wire.CloseMeta{}
	for _, a := range cp.Apps {
		m.Apps = append(m.Apps, wire.AppFinal{WallNs: int64(a.WallTime)})
	}
	for _, lr := range cp.Loss {
		m.Loss = append(m.Loss, wire.LossRow{
			App:          lr.App,
			Rank:         lr.Rank,
			Dropped:      lr.Dropped,
			LostInFlight: lr.LostInFlight,
			Shed:         lr.Shed,
		})
	}
	return m
}

// Replay runs the captured workload through a full session on c:
// Register, every pack in capture order, Close. When diffEvery > 0 it
// additionally polls Diff every diffEvery packs and verifies at the end
// that the replayed cursor state matches a fresh Snapshot — the query
// API's convergence check. Returns the daemon's final report.
func (cp *Capture) Replay(c *client.Client, diffEvery int) (wire.FinalReport, error) {
	if cp.PackVersion > c.Format() {
		return wire.FinalReport{}, fmt.Errorf("exp: capture uses pack v%d but the daemon negotiated v%d", cp.PackVersion, c.Format())
	}
	meta := cp.SessionMeta()
	if _, err := c.Register(meta); err != nil {
		return wire.FinalReport{}, err
	}
	var replay *client.DiffReplayer
	if diffEvery > 0 {
		replay = client.NewDiffReplayer(meta)
	}
	poll := func() error {
		st, err := c.Diff(replay.Cursor())
		if err == nil {
			err = replay.Apply(st)
		}
		return err
	}
	for i, p := range cp.Packs {
		if err := c.SendPack(uint32(p.Src), p.Data); err != nil {
			return wire.FinalReport{}, err
		}
		if replay != nil && (i+1)%diffEvery == 0 {
			if err := poll(); err != nil {
				return wire.FinalReport{}, err
			}
		}
	}
	if replay != nil {
		if err := poll(); err != nil {
			return wire.FinalReport{}, err
		}
		snap, err := c.Snapshot()
		if err == nil {
			err = replay.Verify(snap)
		}
		if err != nil {
			return wire.FinalReport{}, err
		}
	}
	return c.Close(cp.CloseMeta())
}
