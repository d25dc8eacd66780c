package serviced

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// This file is the session's bounded ingest worker pool: the serving-side
// face of the analysis package's replica layer. With Options.Workers > 1 a
// session fans its data packs out to that many lanes — writer-sticky
// (src mod workers), so each writer's packs decode in order through its
// own v3 stream decoder — and every lane folds into private per-app
// analysis.Replica state, entirely lock-free. The session's delta only
// learns about the folded events at a flush barrier, run on the
// connection goroutine at every seal (snapshot, diff, close): the seal
// IS the epoch boundary here, so query results are byte-identical to the
// synchronous path's — replica merges are associative-commutative and
// the canonical encoding is content-only.
//
// Pack bytes alias the wire reader's frame buffer, so the connection
// copies them (through a recycling pool) before handing them to a lane.
// Admission gates are per-app atomics, safe to consult lane-side; their
// shed ledgers stay whole-session, folded at close like the synchronous
// path does.

// laneQueueDepth bounds each lane's pack queue; a full queue blocks the
// connection goroutine, which is the natural backpressure (the credit
// window already paces the client's burst size).
const laneQueueDepth = 32

// laneJob is one unit of lane work: either a copied pack to fold, or a
// flush barrier to acknowledge.
type laneJob struct {
	src   uint32
	app   *sessionApp
	buf   *[]byte
	flush chan<- struct{}
}

// lane is one ingest worker: a goroutine draining jobs into goroutine-owned
// decoders and replicas. Between a flush acknowledgement and the next job
// send the lane is quiescent, which is when the connection goroutine may
// read and reset its state (the channel operations are the happens-before
// edges in both directions).
type lane struct {
	jobs chan laneJob

	// Owned by the lane goroutine (and by the connection goroutine only
	// while the lane is quiescent after a flush ack):
	decs     trace.Decoders
	reps     map[*sessionApp]*analysis.Replica
	admitted int64

	failed atomic.Bool
	errMu  sync.Mutex
	err    error
}

func (l *lane) fail(err error) {
	l.errMu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.errMu.Unlock()
	l.failed.Store(true)
}

func (l *lane) firstErr() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.err
}

// startLanes spins up the session's worker pool.
func (s *session) startLanes(workers int) {
	s.bufPool.New = func() any {
		b := make([]byte, 0, 1<<14)
		return &b
	}
	s.lanes = make([]*lane, workers)
	for i := range s.lanes {
		l := &lane{
			jobs: make(chan laneJob, laneQueueDepth),
			decs: make(trace.Decoders),
			reps: make(map[*sessionApp]*analysis.Replica),
		}
		s.lanes[i] = l
		s.laneWG.Add(1)
		go s.runLane(l)
	}
}

// enqueue hands one validated data pack to its source's lane. The pack
// bytes are copied: they alias the frame reader's buffer, which the
// connection reuses for the next frame before the lane gets to decode.
func (s *session) enqueue(src uint32, app *sessionApp, pack []byte) error {
	l := s.lanes[src%uint32(len(s.lanes))]
	if l.failed.Load() {
		return l.firstErr()
	}
	bp := s.bufPool.Get().(*[]byte)
	*bp = append((*bp)[:0], pack...)
	l.jobs <- laneJob{src: src, app: app, buf: bp}
	return nil
}

// runLane is a lane goroutine's loop. A job after a failure is drained
// (its buffer recycled) but not folded: the session is going down as soon
// as the connection notices.
func (s *session) runLane(l *lane) {
	defer s.laneWG.Done()
	for j := range l.jobs {
		if j.flush != nil {
			close(j.flush)
			continue
		}
		if !l.failed.Load() {
			if err := l.fold(j); err != nil {
				l.fail(err)
			}
		}
		*j.buf = (*j.buf)[:0]
		s.bufPool.Put(j.buf)
	}
}

// fold decodes one pack into the lane's replica for its app, consulting
// the app's (atomic) admission gate per event exactly like the
// synchronous path.
func (l *lane) fold(j laneJob) error {
	rep := l.reps[j.app]
	if rep == nil {
		rep = analysis.NewReplica(j.app.meta.AppID, j.app.opts)
		l.reps[j.app] = rep
	}
	admitted, err := decodeAdmitted(l.decs, j.src, j.app, *j.buf, rep.FoldFunc())
	l.admitted += admitted
	return err
}

// flushLanes is the epoch barrier: it quiesces every lane, surfaces any
// deferred decode error, and merges each lane's replicas into the
// session delta — MergeReset, so the replicas' maps and queue backing
// arrays stay allocated for the next epoch. Runs on the connection
// goroutine; the flush acks hand the lanes' state over, and the next
// pack send hands it back.
func (s *session) flushLanes() error {
	if len(s.lanes) == 0 {
		return nil
	}
	acks := make([]chan struct{}, len(s.lanes))
	for i, l := range s.lanes {
		ack := make(chan struct{})
		acks[i] = ack
		l.jobs <- laneJob{flush: ack}
	}
	for _, ack := range acks {
		<-ack
	}
	for _, l := range s.lanes {
		if err := l.firstErr(); err != nil {
			return err
		}
		s.events.Add(l.admitted)
		l.admitted = 0
		for app, rep := range l.reps {
			pp := rep.Partial()
			if pp.Profiler.Events() == 0 {
				continue
			}
			t0 := time.Now()
			if err := app.delta.Partial().MergeReset(pp); err != nil {
				return fmt.Errorf("serviced: replica merge: %w", err)
			}
			s.laneMerges.Add(1)
			s.laneMergeNs.Add(time.Since(t0).Nanoseconds())
		}
	}
	return nil
}

// shutdown stops the worker pool and waits for the lane goroutines to
// exit. Idempotent; called when the session ends, cleanly or not.
func (s *session) shutdown() {
	s.shutOnce.Do(func() {
		for _, l := range s.lanes {
			close(l.jobs)
		}
		s.laneWG.Wait()
	})
}
