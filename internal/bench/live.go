package bench

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/client"
	"repro/internal/serviced"
	"repro/internal/trace"
	"repro/internal/wire"
)

// LiveConfig shapes the open-loop workload: a paced pack stream with a
// live dashboard polling Diff beside it.
type LiveConfig struct {
	// Ranks is the application size (one writer per rank).
	Ranks int
	// EventsPerPack is the pack size (63 = a 16 KiB-logical pack).
	EventsPerPack int
	// PreloadPacks are sent unpaced and untimed before the segment, so
	// every segment starts from the same state size.
	PreloadPacks int
	// Tick is the generator's period; PacksPerTick packs are due at each
	// tick.
	Tick         time.Duration
	PacksPerTick int
	// PollTicks is the dashboard's period in ticks: a Diff+Apply follows
	// the packs of every PollTicks-th tick.
	PollTicks int
	// SegmentTicks is the length of one stationary segment.
	SegmentTicks int
}

// LiveQuery is the daemon_live_query workload: 256 ranks, 8 packs of 63
// events every 5 ms (≈100 k events/s), a poll every 50 ms, 1 s segments.
var LiveQuery = LiveConfig{
	Ranks:         256,
	EventsPerPack: 63,
	PreloadPacks:  2048,
	Tick:          5 * time.Millisecond,
	PacksPerTick:  8,
	PollTicks:     10,
	SegmentTicks:  200,
}

// packs returns how many packs one segment sends, preload included.
func (c LiveConfig) packs() int { return c.PreloadPacks + c.SegmentTicks*c.PacksPerTick }

// corpus returns the corpus configuration that covers one segment.
func (c LiveConfig) corpus() CorpusConfig {
	perWriter := (c.packs() + c.Ranks - 1) / c.Ranks
	return CorpusConfig{Writers: c.Ranks, EventsPerWriter: perWriter * c.EventsPerPack, EventsPerPack: c.EventsPerPack, PackVersion: trace.PackV3}
}

// liveMeta turns every optional module on: wait-state, sizes,
// call-sites, temporal buckets and tumbling windows. The widths are in
// the corpus's virtual time (events 1.5 µs apart per rank).
func liveMeta(ranks int) wire.SessionMeta {
	return wire.SessionMeta{
		Title:            benchTitle,
		Apps:             []wire.AppMeta{{Name: benchApp, Procs: ranks, AppID: AppID}},
		WaitState:        true,
		Sizes:            true,
		Callsites:        true,
		TemporalWindowNs: 100_000,
		WindowNs:         500_000,
	}
}

// errBacklog ends a paced segment that fell hopelessly behind its
// schedule.
var errBacklog = errors.New("bench: generator backlog past the limit")

// liveOptions is the module selection liveMeta asks the daemon for, as
// the analysis package spells it.
func liveOptions(ranks int) analysis.PartialOptions {
	m := liveMeta(ranks)
	return analysis.PartialOptions{
		AppSize: ranks, WaitState: m.WaitState, TemporalWindowNs: m.TemporalWindowNs,
		Callsites: m.Callsites, Sizes: m.Sizes, WindowNs: m.WindowNs, WindowSlideNs: m.WindowSlideNs,
	}
}

// openLoop paces ticks on a fixed schedule that does not slow when the
// system does: tick i is due at start+i*tick whatever happened before
// it. It returns how late each tick's work started.
//
// send performs tick i's work. due is the tick's due time — the stamp
// latencies are taken from, so a stall in one tick counts against the
// ticks queued behind it. With maxLate > 0 the loop gives up with
// errBacklog once a tick starts more than maxLate behind (the rate
// ladder's unsustainable rungs).
func openLoop(start time.Time, tick time.Duration, ticks int, maxLate time.Duration, send func(i int, due time.Time) error) ([]time.Duration, error) {
	late := make([]time.Duration, 0, ticks)
	for i := 0; i < ticks; i++ {
		due := start.Add(time.Duration(i) * tick)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		l := time.Since(due)
		if l < 0 {
			l = 0
		}
		late = append(late, l)
		if maxLate > 0 && l > maxLate {
			return late, errBacklog
		}
		if err := send(i, due); err != nil {
			return late, err
		}
	}
	return late, nil
}

// liveInstance is the read-heavy daemon workload.
type liveInstance struct {
	cfg    LiveConfig
	corpus *Corpus
	ld     *loopbackDaemon
	// lateness collects every tick's generator lateness, and stateBytes
	// every Diff answer's payload size, across segments.
	lateness   []time.Duration
	stateBytes []int64
	// backlog is the longest a segment's paced part overran its schedule.
	backlog time.Duration
	// maxLate, when positive, abandons a segment's pacing once it is that
	// far behind (rate ladder); overrun records that it happened.
	maxLate time.Duration
	overrun bool
}

func setupLive(seed int64, tr *Tracer, cfg LiveConfig, opts serviced.Options) (*liveInstance, error) {
	c, err := BuildCorpus(cfg.corpus(), seed)
	if err != nil {
		return nil, err
	}
	ld, err := startDaemon(tr, opts)
	if err != nil {
		return nil, err
	}
	return &liveInstance{cfg: cfg, corpus: c, ld: ld}, nil
}

func (w *liveInstance) close() { w.ld.stop() }

// extras reports how late the generator ran, how large the Diff answers
// were, and the daemon's own ledger.
func (w *liveInstance) extras() map[string]Value {
	out := w.ld.status()
	late := make([]float64, len(w.lateness))
	for i, l := range w.lateness {
		late[i] = l.Seconds() * 1e3
	}
	var sb []float64
	for _, b := range w.stateBytes {
		sb = append(sb, float64(b))
	}
	out["harness.gen_lateness_ms_p99"] = Value{Percentile(late, 99), "ms"}
	out["harness.backlog_ms_max"] = Value{w.backlog.Seconds() * 1e3, "ms"}
	out["client.state_bytes_per_diff"] = Value{Median(sb), "B"}
	return out
}

// run is one segment: a fresh session, the unpaced preload, then
// SegmentTicks paced ticks with a Diff+Apply every PollTicks, and at the
// end a Snapshot the replayed state must equal.
func (w *liveInstance) run(tr *Tracer, parent SpanRef, id int) (unit, error) {
	var u unit
	cfg := w.cfg
	meta := liveMeta(cfg.Ranks)
	s, err := w.ld.open(meta)
	u.attempted++
	if err != nil {
		u.failed++
		return u, fmt.Errorf("bench: open session: %w", err)
	}
	defer s.c.Shutdown()
	replay := client.NewDiffReplayer(meta)
	packs := w.corpus.Packs[:cfg.packs()]
	send := func(pk Pack) error {
		sp := tr.Begin(parent, "client.Client.SendPack", id)
		err := s.c.SendPack(pk.Src, pk.Data)
		sp.End()
		u.attempted++
		if err != nil {
			u.failed++
		}
		return err
	}
	poll := func() error {
		sp := tr.Begin(parent, "client.Client.Diff", id)
		st, err := s.c.Diff(replay.Cursor())
		sp.End()
		u.attempted++
		if err != nil {
			u.failed++
			return err
		}
		var n int64
		for _, a := range st.Apps {
			n += int64(len(a))
		}
		w.stateBytes = append(w.stateBytes, n)
		sp = tr.Begin(parent, "client.DiffReplayer.Apply", id)
		err = replay.Apply(st)
		sp.End()
		if err != nil {
			u.failed++
		}
		return err
	}

	for _, pk := range packs[:cfg.PreloadPacks] {
		if err := send(pk); err != nil {
			return u, fmt.Errorf("bench: preload: %w", err)
		}
	}
	if err := poll(); err != nil {
		return u, fmt.Errorf("bench: preload poll: %w", err)
	}
	runtime.GC()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	paced := packs[cfg.PreloadPacks:]
	cpu0, start := CPUTime(), time.Now()
	late, err := openLoop(start, cfg.Tick, cfg.SegmentTicks, w.maxLate, func(i int, due time.Time) error {
		for _, pk := range paced[i*cfg.PacksPerTick : (i+1)*cfg.PacksPerTick] {
			if err := send(pk); err != nil {
				return err
			}
		}
		if (i+1)%cfg.PollTicks != 0 {
			return nil
		}
		if err := poll(); err != nil {
			return err
		}
		u.latencies = append(u.latencies, time.Since(due))
		return nil
	})
	// The wall time runs to the end of the last tick's work, which is due
	// one tick before the segment's nominal end; past that is backlog.
	u.wall, u.cpu = time.Since(start), CPUTime()-cpu0
	if over := u.wall - time.Duration(cfg.SegmentTicks)*cfg.Tick; over > w.backlog {
		w.backlog = over
	}
	runtime.ReadMemStats(&ms1)
	u.mallocs = ms1.Mallocs - ms0.Mallocs
	w.lateness = append(w.lateness, late...)
	if errors.Is(err, errBacklog) {
		// The session is still consistent: finish it properly so the
		// daemon's ledger shows a closed session, not an aborted one.
		w.overrun, err = true, nil
		packs = packs[:cfg.PreloadPacks+len(late)*cfg.PacksPerTick-cfg.PacksPerTick]
		paced = packs[cfg.PreloadPacks:]
		err = poll()
	}
	if err != nil {
		return u, fmt.Errorf("bench: paced segment: %w", err)
	}

	// The dashboard's merged state must be the daemon's, byte for byte.
	sp := tr.Begin(parent, "client.Client.Snapshot", id)
	snap, err := s.c.Snapshot()
	sp.End()
	u.attempted += 2
	if err != nil {
		u.failed++
		return u, fmt.Errorf("bench: snapshot: %w", err)
	}
	if err := replay.Verify(snap); err != nil {
		u.failed++
		return u, fmt.Errorf("bench: diff replay: %w", err)
	}
	sp = tr.Begin(parent, "client.Client.Close", id)
	fr, err := s.c.Close(wire.CloseMeta{Apps: []wire.AppFinal{{}}})
	sp.End()
	u.attempted += 2
	if err != nil {
		u.failed++
		return u, fmt.Errorf("bench: close: %w", err)
	}
	u.wireBytes = s.conn.written.Load()
	sent := int64(len(packs)) * int64(cfg.EventsPerPack)
	if fr.Events != sent || fr.Shed != 0 {
		u.failed++
		return u, fmt.Errorf("bench: daemon analyzed %d of %d generated events (%d shed)", fr.Events, sent, fr.Shed)
	}
	// Rates and CPU are per paced event; wire bytes cover the whole
	// session, so they are divided by every event it sent.
	u.events = int64(len(paced)) * int64(cfg.EventsPerPack)
	u.wireEvents = sent
	return u, nil
}
