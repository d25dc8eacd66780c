package serviced

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/wire"
)

// sessionApp is one application's analysis state inside a session: the
// same leaf-partial machinery the reduction tree runs, split into an
// accumulating delta and the merged cumulative state behind it.
type sessionApp struct {
	meta wire.AppMeta
	// opts is the app's module selection, kept so ingest lanes can mint
	// matching replicas (see lanes.go).
	opts analysis.PartialOptions
	// gate is the application's admission gate, programmed by the
	// session's governor (its ladder sheds nothing below level 2).
	gate *adapt.Gate
	// delta accumulates events since the last seal. Non-final seals flush
	// only settled statistics — wait-state pending queues stay here until
	// Close, mirroring the tree leaves' final-flush semantics. Only the
	// connection goroutine touches it, so it is a replica: the synchronous
	// path folds into it lock-free, the way a lane folds into its own.
	delta *analysis.Replica
	// cum is the merge of every sealed delta: the state Snapshot serves.
	cum *analysis.Partial
	// sealedLen is the size of the last flushed delta, which sizes the
	// next flush's buffer (Partial.FlushPooled).
	sealedLen int
	// snap holds the app's part of the last Snapshot, multi that of the
	// last Diff over several epochs, which folds them into acc first
	// (emptied again by the flush that encodes it): storage every query
	// reuses, so an answer is valid until the next frame.
	snap, multi []byte
	acc         *analysis.Partial
	// tracker, on windowed sessions, is the arrival-side lateness
	// accounting shared by the synchronous fold and every ingest lane,
	// each counting into a tally of its own replica (Replica.Track).
	// The daemon has no virtual clock, so lag stays zero and lateness is
	// judged purely against the event-time watermark: an event behind a
	// window the watermark already passed is late.
	tracker *analysis.WindowTracker
}

// session is one tenant's profiling session: per-application partial
// profiles fed by the wire pack stream, sealed into a monotonic epoch
// log that backs the Snapshot/Diff query API. A session lives on one
// connection and is driven by a single goroutine; with workers > 1 a
// bounded lane pool (lanes.go) folds data packs off that goroutine into
// per-app replicas, merged back at every seal. Counters the daemon's
// Status reads concurrently are atomics; everything else stays
// connection-goroutine-owned.
type session struct {
	id     uint64
	format int // negotiated pack wire format
	meta   wire.SessionMeta
	apps   []*sessionApp
	byID   map[uint32]*sessionApp
	// decs holds one persistent stream decoder per writer (keyed by the
	// client-assigned writer id): v3 packs index a cross-pack dictionary,
	// so each writer's packs must decode in order through its own decoder
	// — the same invariant the in-process fused ingest keeps. v1 and v2
	// packs carry no cross-pack state and decode through it all the same.
	decs trace.Decoders
	gov  *governor

	// epoch counts seals; sealed is a ring of the most recent
	// DefaultEpochCap sealed deltas, covering epochs (epoch-len(sealed),
	// epoch], epoch e in slot (e-1) mod DefaultEpochCap. A Diff cursor
	// older than that gets a full-state resync. The ring is allocated
	// whole with the session and grows within its capacity.
	epoch  atomic.Uint64
	dirty  bool
	sealed []sealedEpoch
	// answer holds a query answer's per-app slices.
	answer [][]byte

	// lanes is the bounded ingest worker pool (empty = synchronous
	// ingest); see lanes.go for the full concurrency contract.
	lanes       []*lane
	laneWG      sync.WaitGroup
	bufPool     sync.Pool
	shutOnce    sync.Once
	laneMerges  atomic.Int64
	laneMergeNs atomic.Int64

	// seals/diffs count the epochs sealed and the Diff queries answered,
	// sealNs/diffNs the wall time spent in them (a diff's own seal counts
	// as seal time), stateBytes the partial bytes served by Snapshot and
	// Diff.
	seals      atomic.Int64
	sealNs     atomic.Int64
	diffs      atomic.Int64
	diffNs     atomic.Int64
	stateBytes atomic.Int64

	packs  atomic.Int64
	events atomic.Int64
	closed bool
}

// sealedEpoch is one sealed delta: the encoded per-application partials
// of everything ingested between two seals, indexed like session.apps, in
// pack-pool storage that goes back when the ring evicts the epoch or the
// session ends.
type sealedEpoch struct {
	apps [][]byte
}

// DefaultEpochCap bounds the retained sealed-delta log per session.
const DefaultEpochCap = 64

func newSession(id uint64, format int, meta wire.SessionMeta, gov *governor, workers int) *session {
	s := &session{
		id:     id,
		format: format,
		meta:   meta,
		byID:   make(map[uint32]*sessionApp, len(meta.Apps)),
		decs:   make(trace.Decoders),
		gov:    gov,
		answer: make([][]byte, len(meta.Apps)),
		sealed: make([]sealedEpoch, DefaultEpochCap),
	}
	// Every slot's per-app slices are carved from one array.
	slots := make([][]byte, DefaultEpochCap*len(meta.Apps))
	for i := range s.sealed {
		s.sealed[i].apps = slots[i*len(meta.Apps) : (i+1)*len(meta.Apps) : (i+1)*len(meta.Apps)]
	}
	s.sealed = s.sealed[:0]
	for _, am := range meta.Apps {
		opts := analysis.PartialOptions{
			AppSize:          am.Procs,
			WaitState:        meta.WaitState,
			TemporalWindowNs: meta.TemporalWindowNs,
			Callsites:        meta.Callsites,
			Sizes:            meta.Sizes,
			WindowNs:         meta.WindowNs,
			WindowSlideNs:    meta.WindowSlideNs,
		}
		app := &sessionApp{
			meta:  am,
			opts:  opts,
			gate:  gov.newGate(),
			delta: analysis.NewReplica(am.AppID, opts),
			cum:   analysis.NewPartial(am.AppID, opts),
			acc:   analysis.NewPartial(am.AppID, opts),
		}
		if meta.WindowNs > 0 {
			app.tracker = analysis.NewWindowTracker(meta.WindowNs, meta.WindowSlideNs, meta.WindowGraceNs, nil)
			app.delta.Track(app.tracker)
		}
		s.apps = append(s.apps, app)
		s.byID[am.AppID] = app
	}
	if workers > 1 {
		s.startLanes(workers)
	}
	return s
}

// workerCount reports the session's ingest pool size (1 = synchronous).
func (s *session) workerCount() int {
	if len(s.lanes) == 0 {
		return 1
	}
	return len(s.lanes)
}

// ingest folds one pack frame into the session. The pack bytes alias the
// frame reader's buffer; the synchronous path consumes them in place,
// the lane path copies them before handing off. Audit packs are always
// folded here — they touch the delta's completeness module, which the
// lanes never do. A data pack may be in any format up to the negotiated
// one: an adaptive run announces its highest and starts below it.
func (s *session) ingest(src uint32, pack []byte) error {
	h, err := trace.PeekHeader(pack)
	if err != nil {
		return fmt.Errorf("pack header: %w", err)
	}
	app := s.byID[h.AppID]
	if app == nil {
		return fmt.Errorf("pack for unregistered app id %d", h.AppID)
	}
	if h.Version == trace.PackAudit {
		// A client-side shed ledger (adaptive instrumented runs): fold it
		// into the same completeness accounting the daemon's own gates use.
		_, entries, err := trace.DecodeAuditPack(pack)
		if err != nil {
			return fmt.Errorf("audit pack: %w", err)
		}
		app.delta.Partial().AddAudit(entries)
		s.dirty = true
		s.gov.onPack(len(pack))
		return nil
	}
	if h.Version > s.format {
		return fmt.Errorf("pack format v%d on a session negotiated for v%d", h.Version, s.format)
	}
	if len(s.lanes) > 0 {
		if err := s.enqueue(src, app, pack); err != nil {
			return err
		}
	} else if err := s.foldSync(src, app, pack); err != nil {
		return err
	}
	s.packs.Add(1)
	s.dirty = true
	s.gov.onPack(len(pack))
	return nil
}

// foldSync is the synchronous decode+fold path: events go straight into
// the app's delta, which keeps every writer's pendings across seals, so it
// pairs what each pack completed (Replica.Settle; a lane replica may not).
func (s *session) foldSync(src uint32, app *sessionApp, pack []byte) error {
	admitted, err := decodeAdmitted(s.decs, src, app, pack, app.delta)
	app.delta.Settle()
	s.events.Add(admitted)
	return err
}

// decodeAdmitted decodes one data pack of any negotiated format through
// its writer's decoder in decs and folds into rep every event the app's
// admission gate admits, deciding through one tally for the pack. Then it
// commits the pack's admission tally and rep's window tally: the gate and
// the tracker, shared across lanes, take the pack's counts at once. It
// returns how many were admitted.
func decodeAdmitted(decs trace.Decoders, src uint32, app *sessionApp, pack []byte, rep *analysis.Replica) (int64, error) {
	admitted := int64(0)
	fold := rep.FoldFunc()
	var gate adapt.Tally
	gate.Start(app.gate)
	_, err := decs.For(int(src)).DecodeDispatch(pack, func(ev *trace.Event) {
		if gate.Admit(ev.Kind) {
			fold(ev)
			admitted++
		}
	})
	gate.Commit()
	rep.EndPack()
	if err != nil {
		return admitted, fmt.Errorf("pack decode: %w", err)
	}
	return admitted, nil
}

// seal closes the current delta into a new epoch: pending lane work is
// flushed into the delta first (the lane pool's epoch barrier), then
// each application's delta is flushed (settled statistics only —
// pendings stay local; the flush resets the delta in place) into a pooled
// buffer, its bytes are folded into the cumulative state with
// MergeEncoded, and the same bytes are retained for Diff replay. The cost
// is that of the encoded delta: nothing on this path is proportional to
// ranks².
func (s *session) seal() error {
	if err := s.flushLanes(); err != nil {
		return err
	}
	if !s.dirty {
		return nil
	}
	t0 := time.Now()
	epoch := s.epoch.Load()
	se := s.slot(epoch + 1)
	for i, a := range s.apps {
		se.apps[i] = a.delta.Partial().FlushPooled(&a.sealedLen, false)
		if err := a.cum.MergeEncoded(se.apps[i]); err != nil {
			return fmt.Errorf("seal epoch %d: %w", epoch+1, err)
		}
	}
	s.epoch.Add(1)
	s.dirty = false
	s.seals.Add(1)
	s.sealNs.Add(time.Since(t0).Nanoseconds())
	return nil
}

// slot returns the ring entry epoch e seals into. Once the ring is full
// that is the oldest epoch's, whose bytes go back to the pack pool: no
// answer refers to them, each being copied into its frame before the
// next one is served.
func (s *session) slot(e uint64) *sealedEpoch {
	if len(s.sealed) < DefaultEpochCap {
		s.sealed = s.sealed[:len(s.sealed)+1]
		return &s.sealed[len(s.sealed)-1]
	}
	se := &s.sealed[(e-1)%DefaultEpochCap]
	for i, b := range se.apps {
		trace.PutBuffer(b)
		se.apps[i] = nil
	}
	return se
}

// release gives the retained epochs' bytes back to the pack pool when the
// session ends, closed or aborted.
func (s *session) release() {
	for _, se := range s.sealed {
		for _, b := range se.apps {
			trace.PutBuffer(b)
		}
	}
	s.sealed = s.sealed[:0]
}

// snapshot seals pending work and returns the full cumulative state:
// one canonical partial per application, valid as a Diff cursor at
// epoch To. Encoding the whole state is the one O(ranks²) query.
func (s *session) snapshot() (wire.State, error) {
	if err := s.seal(); err != nil {
		return wire.State{}, err
	}
	st := wire.State{From: 0, To: s.epoch.Load(), Full: true, Apps: s.answer}
	for i, a := range s.apps {
		a.snap = a.cum.AppendCanonical(a.snap[:0])
		st.Apps[i] = a.snap
	}
	s.served(st)
	return st, nil
}

// queryStats reads the session's query-path ledger (atomics: safe from
// Status while the connection goroutine serves).
func (s *session) queryStats() QueryStats {
	return QueryStats{
		Seals:      s.seals.Load(),
		SealNs:     s.sealNs.Load(),
		Diffs:      s.diffs.Load(),
		DiffNs:     s.diffNs.Load(),
		StateBytes: s.stateBytes.Load(),
	}
}

// served ledgers the payload size of one query answer.
func (s *session) served(st wire.State) {
	for _, a := range st.Apps {
		s.stateBytes.Add(int64(len(a)))
	}
}

// diff seals pending work and returns the state delta after the client's
// cursor: one mergeable partial per application covering every sealed
// epoch in (cursor, epoch]. A cursor one epoch behind — the live-poll
// case — is answered with that epoch's retained bytes as they are (they
// decode to the partial a canonical re-encode would give; only the
// header's pendings bit differs, which no decoder reads); an older one
// with the epochs folded into the app's kept accumulator by MergeEncoded,
// which the flush that encodes the answer empties again. A cursor
// that aged out of the retained log gets the full state back (Full set —
// replace, don't merge); a cursor at the head gets an empty delta.
func (s *session) diff(cursor uint64) (wire.State, error) {
	if err := s.seal(); err != nil {
		return wire.State{}, err
	}
	t0 := time.Now()
	defer func() {
		s.diffs.Add(1)
		s.diffNs.Add(time.Since(t0).Nanoseconds())
	}()
	epoch := s.epoch.Load()
	if cursor > epoch {
		return wire.State{}, fmt.Errorf("diff cursor %d ahead of epoch %d", cursor, epoch)
	}
	lo := epoch - uint64(len(s.sealed)) // sealed log covers (lo, epoch]
	if cursor < lo {
		st, err := s.snapshot()
		if err != nil {
			return wire.State{}, err
		}
		st.From = cursor
		return st, nil
	}
	st := wire.State{From: cursor, To: epoch}
	if cursor == epoch {
		return st, nil
	}
	if epoch-cursor == 1 {
		st.Apps = s.sealed[cursor%DefaultEpochCap].apps
	} else {
		st.Apps = s.answer
		for i, a := range s.apps {
			for e := cursor; e < epoch; e++ {
				if err := a.acc.MergeEncoded(s.sealed[e%DefaultEpochCap].apps[i]); err != nil {
					return wire.State{}, fmt.Errorf("diff merge: %w", err)
				}
			}
			a.multi = a.acc.Flush(a.multi[:0], true)
			st.Apps[i] = a.multi
		}
	}
	s.served(st)
	return st, nil
}

// close runs the final seal (wait-state pendings travel now, like a tree
// leaf's final flush), folds the admission gates' shed ledgers into the
// completeness accounting, and builds the final report.
func (s *session) close(cm wire.CloseMeta) (*report.Report, error) {
	if len(cm.Apps) != len(s.apps) {
		return nil, fmt.Errorf("close names %d apps, session has %d", len(cm.Apps), len(s.apps))
	}
	if err := s.flushLanes(); err != nil {
		return nil, err
	}
	for _, a := range s.apps {
		if a.gate.TotalShed() > 0 {
			a.delta.Partial().AddAudit(a.gate.Entries())
		}
	}
	t0 := time.Now()
	for _, a := range s.apps {
		buf := a.delta.Partial().FlushPooled(&a.sealedLen, true)
		err := a.cum.MergeEncoded(buf)
		trace.PutBuffer(buf)
		if err != nil {
			return nil, fmt.Errorf("final seal: %w", err)
		}
	}
	s.seals.Add(1)
	s.sealNs.Add(time.Since(t0).Nanoseconds())
	s.epoch.Add(1)
	s.closed = true

	rep := &report.Report{Title: s.meta.Title}
	for _, lr := range cm.Loss {
		rep.StreamLoss = append(rep.StreamLoss, report.StreamLossRow{
			App:          lr.App,
			Rank:         lr.Rank,
			Dropped:      lr.Dropped,
			LostInFlight: lr.LostInFlight,
			Shed:         lr.Shed,
		})
	}
	for i, a := range s.apps {
		if a.cum.Callsites != nil {
			for ctx, label := range a.meta.Labels {
				a.cum.Callsites.Label(ctx, label)
			}
		}
		comp := a.cum.Shed
		if comp == nil {
			comp = analysis.NewCompletenessModule()
		}
		rep.Chapters = append(rep.Chapters, &report.Chapter{
			App:          a.meta.Name,
			Procs:        a.meta.Procs,
			WallTime:     time.Duration(cm.Apps[i].WallNs),
			Profiler:     a.cum.Profiler,
			Topology:     a.cum.Topology,
			Density:      a.cum.Density,
			WaitState:    a.cum.Waits,
			Temporal:     a.cum.Temporal,
			Callsites:    a.cum.Callsites,
			Sizes:        a.cum.Sizes,
			Completeness: comp,
			Windows:      a.cum.Windows,
			WindowLag:    a.tracker,
		})
	}
	return rep, nil
}

// shedTotal sums the session's gate-shed events across applications.
func (s *session) shedTotal() int64 {
	var n int64
	for _, a := range s.apps {
		n += a.gate.TotalShed()
	}
	return n
}

// analyzedEvents sums the merged profiles' event counts.
func (s *session) analyzedEvents() int64 {
	var n int64
	for _, a := range s.apps {
		n += a.cum.Profiler.Events()
	}
	return n
}

// windowStats sums the windowed-analysis accounting across applications:
// windows the trackers observed, late events, and the worst-case
// (lowest) per-window completeness bound (1 when the session is not
// windowed or nothing was late). Only tracker state is read — atomics
// and its own mutex — so Status may call this while the connection
// goroutine (and its lanes) ingest.
func (s *session) windowStats() (windows int, late int64, minCompleteness float64) {
	minCompleteness = 1
	for _, a := range s.apps {
		if a.tracker == nil {
			continue
		}
		windows += a.tracker.WindowsObserved()
		late += a.tracker.LateEvents()
		if _, c, ok := a.tracker.WorstWindow(); ok {
			minCompleteness = min(minCompleteness, c)
		}
	}
	return
}

// sealedWindows counts the populated windows in the cumulative state.
// Call only from the connection goroutine (the cumulative partials are
// goroutine-owned).
func (s *session) sealedWindows() int {
	var n int
	for _, a := range s.apps {
		if a.cum.Windows != nil {
			n += a.cum.Windows.Len()
		}
	}
	return n
}
