package serviced

import (
	"fmt"
	"slices"
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
	// sealedLen is the size of the last sealed delta: the next seal's
	// buffer starts at that capacity instead of growing from nothing.
	sealedLen int
	// tracker, on windowed sessions, is the arrival-side lateness
	// accounting shared by the synchronous fold and every ingest lane.
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

	// epoch counts seals; sealed retains the most recent epochCap sealed
	// deltas, covering epochs (epoch-len(sealed), epoch]. A Diff cursor
	// older than that gets a full-state resync.
	epoch    atomic.Uint64
	dirty    bool
	sealed   []sealedEpoch
	epochCap int

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
// of everything ingested between two seals, indexed like session.apps.
type sealedEpoch struct {
	apps [][]byte
}

// DefaultEpochCap bounds the retained sealed-delta log per session.
const DefaultEpochCap = 64

func newSession(id uint64, format int, meta wire.SessionMeta, gov *governor, epochCap, workers int) (*session, error) {
	if epochCap <= 0 {
		epochCap = DefaultEpochCap
	}
	s := &session{
		id:       id,
		format:   format,
		meta:     meta,
		byID:     make(map[uint32]*sessionApp, len(meta.Apps)),
		decs:     make(trace.Decoders),
		gov:      gov,
		epochCap: epochCap,
	}
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
		if _, dup := s.byID[am.AppID]; dup {
			return nil, fmt.Errorf("serviced: duplicate app id %d in register", am.AppID)
		}
		app := &sessionApp{
			meta:  am,
			opts:  opts,
			gate:  gov.newGate(),
			delta: analysis.NewReplica(am.AppID, opts),
			cum:   analysis.NewPartial(am.AppID, opts),
		}
		if meta.WindowNs > 0 {
			app.tracker = analysis.NewWindowTracker(meta.WindowNs, meta.WindowSlideNs, meta.WindowGraceNs, nil)
		}
		s.apps = append(s.apps, app)
		s.byID[am.AppID] = app
	}
	if workers > 1 {
		s.startLanes(workers)
	}
	return s, nil
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
// lanes never do.
func (s *session) ingest(src uint32, pack []byte) error {
	h, err := trace.PeekHeader(pack)
	if err != nil {
		return fmt.Errorf("serviced: pack header: %w", err)
	}
	app := s.byID[h.AppID]
	if app == nil {
		return fmt.Errorf("serviced: pack for unregistered app id %d", h.AppID)
	}
	if h.Version == trace.PackAudit {
		// A client-side shed ledger (adaptive instrumented runs): fold it
		// into the same completeness accounting the daemon's own gates use.
		_, entries, err := trace.DecodeAuditPack(pack)
		if err != nil {
			return fmt.Errorf("serviced: audit pack: %w", err)
		}
		app.delta.Partial().AddAudit(entries)
		s.dirty = true
		s.gov.onPack(len(pack))
		return nil
	}
	if h.Version != s.format {
		return fmt.Errorf("serviced: pack format v%d on a session negotiated for v%d", h.Version, s.format)
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
// the app's delta on the connection goroutine.
func (s *session) foldSync(src uint32, app *sessionApp, pack []byte) error {
	admitted, err := decodeAdmitted(s.decs, src, app, pack, app.delta.FoldFunc())
	s.events.Add(admitted)
	return err
}

// decodeAdmitted decodes one data pack of any negotiated format through
// its writer's decoder in decs and hands fold every event the app's
// admission gate admits, the window tracker observing the same events.
// It returns how many were admitted.
func decodeAdmitted(decs trace.Decoders, src uint32, app *sessionApp, pack []byte, fold func(*trace.Event)) (int64, error) {
	admitted := int64(0)
	_, err := decs.For(int(src)).DecodeDispatch(pack, func(ev *trace.Event) {
		if app.gate.Admit(ev.Kind) {
			fold(ev)
			if app.tracker != nil {
				// The tracker is shared across lanes by design: its counts
				// are atomics plus one mutex, so lateness accounting stays
				// exact even though the fold path is shared-nothing.
				app.tracker.OnEvent(ev)
			}
			admitted++
		}
	})
	if err != nil {
		return admitted, fmt.Errorf("serviced: pack decode: %w", err)
	}
	return admitted, nil
}

// seal closes the current delta into a new epoch: pending lane work is
// flushed into the delta first (the lane pool's epoch barrier), then
// each application's delta is flushed (settled statistics only —
// pendings stay local; the flush resets the delta in place), its bytes
// are folded into the cumulative state with MergeEncoded, and the same
// bytes are retained for Diff replay. The cost is that of the encoded
// delta: nothing on this path is proportional to ranks².
func (s *session) seal() error {
	if err := s.flushLanes(); err != nil {
		return err
	}
	if !s.dirty {
		return nil
	}
	t0 := time.Now()
	epoch := s.epoch.Load()
	se := sealedEpoch{apps: make([][]byte, len(s.apps))}
	for i, a := range s.apps {
		// A quarter over the last epoch's size: steady epochs fit, and the
		// retained bytes are not pinned in a buffer much larger than they are.
		se.apps[i] = a.delta.Partial().Flush(make([]byte, 0, a.sealedLen+a.sealedLen/4), false)
		a.sealedLen = len(se.apps[i])
		if err := a.cum.MergeEncoded(se.apps[i]); err != nil {
			return fmt.Errorf("serviced: seal epoch %d: %w", epoch+1, err)
		}
	}
	s.epoch.Add(1)
	if len(s.sealed) == s.epochCap {
		s.sealed = slices.Delete(s.sealed, 0, 1) // copy down: the log keeps its storage
	}
	s.sealed = append(s.sealed, se)
	s.dirty = false
	s.seals.Add(1)
	s.sealNs.Add(time.Since(t0).Nanoseconds())
	return nil
}

// snapshot seals pending work and returns the full cumulative state:
// one canonical partial per application, valid as a Diff cursor at
// epoch To. Encoding the whole state is the one O(ranks²) query.
func (s *session) snapshot() (wire.State, error) {
	if err := s.seal(); err != nil {
		return wire.State{}, err
	}
	st := wire.State{From: 0, To: s.epoch.Load(), Full: true, Apps: make([][]byte, len(s.apps))}
	for i, a := range s.apps {
		st.Apps[i] = a.cum.AppendCanonical(nil)
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
// with the epochs folded into one accumulator by MergeEncoded. A cursor
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
		return wire.State{}, fmt.Errorf("serviced: diff cursor %d ahead of epoch %d", cursor, epoch)
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
	missed := s.sealed[cursor-lo:]
	if len(missed) == 1 {
		st.Apps = missed[0].apps
	} else {
		st.Apps = make([][]byte, len(s.apps))
		for i, a := range s.apps {
			acc := analysis.NewPartial(a.meta.AppID, a.opts)
			for _, se := range missed {
				if err := acc.MergeEncoded(se.apps[i]); err != nil {
					return wire.State{}, fmt.Errorf("serviced: diff merge: %w", err)
				}
			}
			st.Apps[i] = acc.AppendCanonical(nil)
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
		return nil, fmt.Errorf("serviced: close names %d apps, session has %d", len(cm.Apps), len(s.apps))
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
		if err := a.cum.MergeEncoded(a.delta.Partial().Flush(nil, true)); err != nil {
			return nil, fmt.Errorf("serviced: final seal: %w", err)
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
		for _, idx := range a.tracker.WindowIndices() {
			if c := a.tracker.Completeness(idx); c < minCompleteness {
				minCompleteness = c
			}
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
