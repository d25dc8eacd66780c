// Package serviced is the profiler-as-a-service daemon: the paper's
// concluding "truly machine wide server" made concrete. A Daemon hosts
// many concurrent profiling sessions, each fed over a byte-stream
// transport (loopback TCP, or anything io.ReadWriteCloser-shaped — an
// in-process net.Pipe works, so the simulated VMPI world remains a
// transport peer, not a special case) speaking the wire package's
// length-prefixed frame protocol.
//
// Session lifecycle: Hello negotiates the pack wire format (the network
// analogue of the vmpi hello tag), Register opens the session, Pack
// frames stream the existing trace pack formats into per-application
// partial profiles (the reduction tree's leaf machinery reused as the
// serving engine), Snapshot/Diff serve incremental report state keyed by
// a monotonic epoch cursor, Close runs the final flush and returns the
// rendered report — byte-identical to an in-process exp.ProfileRun of
// the same run — and adds a row to the daemon's cross-session history
// (history.go). Per-session admission (credit windows + a quota-driven
// adapt.Controller with class-level shedding gates) keeps one hot tenant
// from degrading the rest; see admission.go.
package serviced

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"

	"repro/internal/adapt"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/wire"
)

// DefaultMaxSessions bounds concurrently live sessions.
const DefaultMaxSessions = 64

// Options configures a Daemon. The zero value serves with the defaults
// noted on each field.
type Options struct {
	// MaxSessions caps concurrently live sessions; registrations beyond it
	// are rejected with an error frame (default DefaultMaxSessions).
	MaxSessions int
	// MaxFormat is the highest pack wire format the daemon negotiates
	// (default trace.PackV3).
	MaxFormat int
	// Window is the level-0 per-session credit window in pack frames
	// (default DefaultWindow).
	Window int
	// GovernEvery is the admission governor's observation cadence in packs
	// (default DefaultGovernEvery).
	GovernEvery int
	// SessionBudgetBytes is the per-session ingest quota: volume past it
	// reads as backlog to the session's adaptive controller, which
	// escalates through the PR6 ladder — narrower credit window first,
	// class-level shedding with an audited completeness bound at the top.
	// 0 disables the quota (sessions never escalate or shed).
	SessionBudgetBytes int64
	// Adaptive tunes each session's controller (zero value = adapt
	// defaults; tests shrink the thresholds for fast escalation).
	Adaptive adapt.Config
	// EpochCap bounds the retained sealed-delta log per session (default
	// DefaultEpochCap); older Diff cursors get a full-state resync.
	EpochCap int
	// Workers is the per-session ingest worker-pool size. With Workers > 1
	// each session fans its data packs out to that many lanes folding into
	// lock-free per-app replicas, merged into the session delta at every
	// seal — query results stay byte-identical to the synchronous path
	// (see lanes.go). <= 1 ingests synchronously on the connection
	// goroutine, the seed behaviour.
	Workers int
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// Status is the daemon's machine-readable state (profilerctl status).
type Status struct {
	SessionsLive   int   `json:"sessions_live"`
	SessionsTotal  int64 `json:"sessions_total"`
	SessionsClosed int64 `json:"sessions_closed"`
	Aborted        int64 `json:"sessions_aborted"`
	Rejected       int64 `json:"sessions_rejected"`
	Packs          int64 `json:"packs"`
	PackBytes      int64 `json:"pack_bytes"`
	Events         int64 `json:"events"`
	ShedEvents     int64 `json:"shed_events"`
	// Workers is the configured per-session ingest pool size (1 =
	// synchronous).
	Workers int `json:"workers"`
	// ReplicaMerges / ReplicaMergeNs total the lane replica merges across
	// retired and live sessions (always zero with Workers <= 1).
	ReplicaMerges  int64 `json:"replica_merges"`
	ReplicaMergeNs int64 `json:"replica_merge_ns"`
	// QueryStats totals the query path across retired and live sessions.
	QueryStats
	// Sessions lists the live sessions' per-session counters.
	Sessions []SessionStatus `json:"sessions,omitempty"`
	// Service is the cross-session history of closed sessions.
	Service ServiceStatus `json:"service"`
}

// QueryStats is the wall-clock ledger of the query path, per session
// and summed for the daemon; its fields appear inline in the status JSON
// (and so in `profilerctl -status`). SealNs/Seals and DiffNs/Diffs are
// the mean cost of sealing an epoch and of answering a Diff on top of
// its seal; StateBytes/(Diffs+snapshots) is what a query ships.
type QueryStats struct {
	Seals      int64 `json:"seals"`
	SealNs     int64 `json:"seal_ns"`
	Diffs      int64 `json:"diffs"`
	DiffNs     int64 `json:"diff_ns"`
	StateBytes int64 `json:"state_bytes"`
}

func (q *QueryStats) add(o QueryStats) {
	q.Seals += o.Seals
	q.SealNs += o.SealNs
	q.Diffs += o.Diffs
	q.DiffNs += o.DiffNs
	q.StateBytes += o.StateBytes
}

// SessionStatus is one live session's counters inside Status.
type SessionStatus struct {
	ID             uint64 `json:"id"`
	Workers        int    `json:"workers"`
	Epoch          uint64 `json:"epoch"`
	Packs          int64  `json:"packs"`
	Events         int64  `json:"events"`
	ReplicaMerges  int64  `json:"replica_merges"`
	ReplicaMergeNs int64  `json:"replica_merge_ns"`
	QueryStats
	// Windows / LateEvents / MinCompleteness surface the windowed
	// analysis (windowed sessions only): windows observed so far, events
	// that arrived after their window should have sealed, and the lowest
	// per-window completeness bound.
	Windows         int     `json:"windows,omitempty"`
	LateEvents      int64   `json:"late_events,omitempty"`
	MinCompleteness float64 `json:"min_completeness,omitempty"`
}

// Daemon hosts concurrent profiling sessions.
type Daemon struct {
	opts Options

	mu     sync.Mutex
	nextID uint64
	live   int
	// liveSess tracks registered, still-open sessions for Status; their
	// counters are atomics, safe to read while their connections ingest.
	liveSess map[uint64]*session
	closed   int64
	aborted  int64
	reject   int64
	packs    int64
	bytes    int64
	events   int64
	shed     int64
	merges   int64
	mergeNs  int64
	query    QueryStats
	hist     history
}

// New builds a daemon.
func New(opts Options) *Daemon {
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	if opts.MaxFormat <= 0 || opts.MaxFormat > trace.PackV3 {
		opts.MaxFormat = trace.PackV3
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	return &Daemon{opts: opts, liveSess: make(map[uint64]*session), hist: history{cap: historyCap}}
}

// Serve accepts connections until the listener closes, one goroutine per
// connection. It returns nil when the listener is closed.
func (d *Daemon) Serve(l net.Listener) error {
	for {
		c, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			if err := d.ServeConn(c); err != nil {
				d.logf("serviced: %v", err)
			}
		}()
	}
}

// ServeConn drives one connection's session to completion. Exported so
// in-process transports (net.Pipe) serve without a listener.
func (d *Daemon) ServeConn(rw io.ReadWriteCloser) error {
	defer rw.Close()
	c := &conn{d: d, fr: wire.NewReader(rw), bw: bufio.NewWriter(rw)}
	err := c.run()
	if c.sess != nil && !c.sess.closed {
		d.endSession(c.sess, nil)
	}
	return err
}

func (d *Daemon) logf(format string, args ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(format, args...)
	}
}

// Status returns the daemon's current counters and its cross-session
// history. Live sessions are listed with their per-session replica
// counters; the aggregate replica totals span retired and live sessions.
// The error is always nil.
func (d *Daemon) Status() (Status, error) {
	d.mu.Lock()
	st := Status{
		SessionsLive:   d.live,
		SessionsTotal:  int64(d.nextID),
		SessionsClosed: d.closed,
		Aborted:        d.aborted,
		Rejected:       d.reject,
		Packs:          d.packs,
		PackBytes:      d.bytes,
		Events:         d.events,
		ShedEvents:     d.shed,
		Workers:        d.opts.Workers,
		ReplicaMerges:  d.merges,
		ReplicaMergeNs: d.mergeNs,
		QueryStats:     d.query,
		Service:        d.hist.status(),
	}
	for _, s := range d.liveSess {
		ss := SessionStatus{
			ID:             s.id,
			Workers:        s.workerCount(),
			Epoch:          s.epoch.Load(),
			Packs:          s.packs.Load(),
			Events:         s.events.Load(),
			ReplicaMerges:  s.laneMerges.Load(),
			ReplicaMergeNs: s.laneMergeNs.Load(),
			QueryStats:     s.queryStats(),
		}
		if w, late, minC := s.windowStats(); w > 0 {
			ss.Windows = w
			ss.LateEvents = late
			ss.MinCompleteness = minC
		}
		st.ReplicaMerges += ss.ReplicaMerges
		st.ReplicaMergeNs += ss.ReplicaMergeNs
		st.QueryStats.add(ss.QueryStats)
		st.Sessions = append(st.Sessions, ss)
	}
	d.mu.Unlock()
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	return st, nil
}

// StatusJSON marshals Status.
func (d *Daemon) StatusJSON() ([]byte, error) {
	st, err := d.Status()
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// beginSession admits (or rejects) a new session under the live cap.
func (d *Daemon) beginSession() (uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.live >= d.opts.MaxSessions {
		d.reject++
		return 0, false
	}
	d.nextID++
	d.live++
	return d.nextID, true
}

// trackSession publishes a freshly registered session for Status.
func (d *Daemon) trackSession(s *session) {
	d.mu.Lock()
	d.liveSess[s.id] = s
	d.mu.Unlock()
}

// endSession retires a session, closed with its final report rep or
// aborted when rep is nil: the lane pool is stopped first (so every
// counter is final), then its accounting folds into the daemon totals and
// a closed session's report into the history.
func (d *Daemon) endSession(s *session, rep *report.Report) {
	s.shutdown()
	d.mu.Lock()
	delete(d.liveSess, s.id)
	d.live--
	if rep == nil {
		d.aborted++
	} else {
		d.closed++
		d.hist.record(rep)
	}
	d.packs += s.packs.Load()
	if s.gov != nil {
		d.bytes += s.gov.bytesIn
	}
	d.events += s.events.Load()
	d.shed += s.shedTotal()
	d.merges += s.laneMerges.Load()
	d.mergeNs += s.laneMergeNs.Load()
	d.query.add(s.queryStats())
	d.mu.Unlock()
}

// conn is one connection's protocol state machine.
type conn struct {
	d    *Daemon
	fr   *wire.Reader
	bw   *bufio.Writer
	sess *session
	// granted/received implement the credit window: granted packs are the
	// credits issued (RegisterAck window plus every Credit frame), and a
	// fresh batch is granted exactly when the client exhausts them, so a
	// compliant client is never starved and the window depth — shrunk by
	// the governor under escalation — paces its burst size.
	granted  int64
	received int64
	// grant is where a credit frame's payload is assembled: a payload
	// handed to the frame writer escapes, and a fresh one per window would
	// be the pack path's only allocation.
	grant [8]byte
}

func (c *conn) send(typ byte, payload []byte) error {
	if err := wire.WriteFrame(c.bw, typ, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// fail sends a terminal error frame; the connection ends after it.
func (c *conn) fail(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if err := c.send(wire.TypeError, []byte(msg)); err != nil {
		return fmt.Errorf("serviced: %s (error frame not delivered: %v)", msg, err)
	}
	return errors.New("serviced: " + msg)
}

// run drives the session state machine: Hello, then Register, then any
// number of Pack/Snapshot/Diff/Stats, then Close; the connection may
// only end cleanly at a frame boundary (a mid-frame disconnect aborts
// the session).
func (c *conn) run() error {
	f, err := c.fr.Next()
	if err != nil {
		return fmt.Errorf("serviced: reading hello: %w", err)
	}
	if f.Type != wire.TypeHello {
		return c.fail("expected hello, got frame type %#x", f.Type)
	}
	h, err := wire.ParseHello(f.Payload)
	if err != nil {
		return c.fail("%v", err)
	}
	if h.Proto != wire.ProtoVersion {
		return c.fail("protocol version %d unsupported (want %d)", h.Proto, wire.ProtoVersion)
	}
	format := int(h.MaxFormat)
	if format < trace.PackV1 {
		return c.fail("client announced no usable pack format (%d)", h.MaxFormat)
	}
	if format > c.d.opts.MaxFormat {
		format = c.d.opts.MaxFormat
	}
	if err := c.send(wire.TypeHelloAck, wire.EncodeHelloAck(wire.HelloAck{Proto: wire.ProtoVersion, Format: byte(format)})); err != nil {
		return err
	}

	for {
		f, err := c.fr.Next()
		if err == io.EOF {
			if c.sess != nil && !c.sess.closed {
				return fmt.Errorf("serviced: session %d: connection ended before close", c.sess.id)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("serviced: reading frame: %w", err)
		}
		switch f.Type {
		case wire.TypeRegister:
			if c.sess != nil {
				return c.fail("duplicate register on one connection")
			}
			meta, err := wire.ParseSessionMeta(f.Payload)
			if err != nil {
				return c.fail("%v", err)
			}
			id, ok := c.d.beginSession()
			if !ok {
				return c.fail("daemon at capacity (%d live sessions)", c.d.opts.MaxSessions)
			}
			gov, err := newGovernor(c.d.opts.Adaptive, c.d.opts.Window, c.d.opts.GovernEvery, c.d.opts.SessionBudgetBytes)
			if err == nil {
				c.sess, err = newSession(id, format, meta, gov, c.d.opts.EpochCap, c.d.opts.Workers)
			}
			if err != nil {
				c.d.endSession(&session{}, nil)
				c.sess = nil
				return c.fail("%v", err)
			}
			c.d.trackSession(c.sess)
			win := gov.window()
			c.granted = int64(win)
			if err := c.send(wire.TypeRegisterAck, wire.EncodeRegisterAck(wire.RegisterAck{Session: id, Window: uint32(win)})); err != nil {
				return err
			}

		case wire.TypePack:
			if err := c.needOpen("pack"); err != nil {
				return err
			}
			src, pack, err := wire.ParsePack(f.Payload)
			if err != nil {
				return c.fail("%v", err)
			}
			if err := c.sess.ingest(src, pack); err != nil {
				return c.fail("session %d: %v", c.sess.id, err)
			}
			c.received++
			if c.received >= c.granted {
				win := int64(c.sess.gov.window())
				c.granted = c.received + win
				n := copy(c.grant[:], wire.EncodeCredit(wire.Credit{Credits: uint32(win), Window: uint32(win)}))
				if err := c.send(wire.TypeCredit, c.grant[:n]); err != nil {
					return err
				}
			}

		case wire.TypeSnapshot:
			if err := c.needOpen("snapshot"); err != nil {
				return err
			}
			st, err := c.sess.snapshot()
			if err != nil {
				return c.fail("session %d: %v", c.sess.id, err)
			}
			if err := c.send(wire.TypeState, wire.EncodeState(st)); err != nil {
				return err
			}

		case wire.TypeDiff:
			if err := c.needOpen("diff"); err != nil {
				return err
			}
			dr, err := wire.ParseDiffReq(f.Payload)
			if err != nil {
				return c.fail("%v", err)
			}
			st, err := c.sess.diff(dr.Cursor)
			if err != nil {
				return c.fail("session %d: %v", c.sess.id, err)
			}
			if err := c.send(wire.TypeState, wire.EncodeState(st)); err != nil {
				return err
			}

		case wire.TypeClose:
			if err := c.needOpen("close"); err != nil {
				return err
			}
			cm, err := wire.ParseCloseMeta(f.Payload)
			if err != nil {
				return c.fail("%v", err)
			}
			rep, err := c.sess.close(cm)
			if err != nil {
				return c.fail("session %d: %v", c.sess.id, err)
			}
			var buf bytes.Buffer
			if err := rep.Render(&buf); err != nil {
				return c.fail("session %d: render: %v", c.sess.id, err)
			}
			c.d.endSession(c.sess, rep)
			_, late, _ := c.sess.windowStats()
			fr := wire.FinalReport{
				Session:    c.sess.id,
				Events:     c.sess.analyzedEvents(),
				Packs:      c.sess.packs.Load(),
				Shed:       c.sess.shedTotal(),
				MaxLevel:   c.sess.gov.maxLevel(),
				Windows:    c.sess.sealedWindows(),
				LateEvents: late,
				Rendered:   buf.String(),
			}
			payload, err := wire.EncodeFinalReport(fr)
			if err != nil {
				return c.fail("session %d: %v", c.sess.id, err)
			}
			if err := c.send(wire.TypeReport, payload); err != nil {
				return err
			}

		case wire.TypeStats:
			sj, err := c.d.StatusJSON()
			if err != nil {
				return c.fail("status: %v", err)
			}
			if err := c.send(wire.TypeStatsAck, sj); err != nil {
				return err
			}

		default:
			return c.fail("unexpected frame type %#x", f.Type)
		}
	}
}

// needOpen checks that a session is registered and still open.
func (c *conn) needOpen(op string) error {
	if c.sess == nil {
		return c.fail("%s before register", op)
	}
	if c.sess.closed {
		return c.fail("session %d: %s after close", c.sess.id, op)
	}
	return nil
}
