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
	// Window is the level-0 per-session credit window in pack frames
	// (default DefaultWindow).
	Window int
	// SessionBudgetBytes is the per-session ingest quota: volume past it
	// reads as backlog to the session's adaptive controller, which
	// escalates through the PR6 ladder — narrower credit window first,
	// class-level shedding with an audited completeness bound at the top.
	// 0 disables the quota (sessions never escalate or shed).
	SessionBudgetBytes int64
	// BacklogHighBytes is the quota overage each session's controller
	// treats as overload (0 = 256 KiB; tests shrink it for fast
	// escalation).
	BacklogHighBytes int64
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
				d.logf("%v", err)
			}
		}()
	}
}

// ServeConn drives one connection's session to completion; a session the
// connection ends with open is aborted. Exported so in-process transports
// (net.Pipe) serve without a listener.
func (d *Daemon) ServeConn(rw io.ReadWriteCloser) error {
	defer rw.Close()
	_, err := d.serve(rw, rw)
	return err
}

// Replay folds an archive, the frame log profiler -export writes, in a
// session of d: its frames go through the loop a connection runs, and their
// replies nowhere. It returns the closed session's report. A log that ends
// before its Close or holds a frame the daemon refuses is an error, and a
// session it left open is aborted; after the Close, only Stats may follow.
func (d *Daemon) Replay(r io.Reader) (*report.Report, error) {
	rep, err := d.serve(r, io.Discard)
	if err == nil && rep == nil {
		err = errors.New("serviced: replay: the log closes no session")
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// serve runs one connection's frames from r, its replies to w, and returns
// the report of its session, nil unless the session closed.
func (d *Daemon) serve(r io.Reader, w io.Writer) (*report.Report, error) {
	c := &conn{d: d}
	err := c.run(wire.NewReader(r), bufio.NewWriterSize(w, wire.ConnBuffer))
	if c.sess != nil && !c.sess.closed {
		d.endSession(c.sess, nil)
		if err == nil {
			err = fmt.Errorf("serviced: session %d ended before close", c.sess.id)
		}
	}
	return c.rep, err
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
	s.release()
}

// conn is one connection's protocol state machine. handle advances it by
// one frame and does no I/O; run is the socket shell around it.
type conn struct {
	d *Daemon
	// format is the pack format the hello negotiated; 0 until it arrives.
	format int
	sess   *session
	// granted/received implement the credit window: granted packs are the
	// credits issued (RegisterAck window plus every Credit frame), and a
	// fresh batch is granted exactly when the client exhausts them, so a
	// compliant client is never starved and the window depth — shrunk by
	// the governor under escalation — paces its burst size.
	granted  int64
	received int64
	// grant is where a credit frame's payload is assembled, state where a
	// State frame's is: a payload handed to the frame writer escapes, so a
	// fresh one per reply would be the pack path's only allocation (credit)
	// and a fresh copy of every query's answer (state).
	grant [8]byte
	state []byte
	// rep is the closed session's report, nil until Close.
	rep *report.Report
}

// run is the socket shell: read a frame, handle it, write the reply. A
// refused frame is answered with a terminal error frame, the one reply
// that ends the connection. A clean end is EOF at a frame boundary.
func (c *conn) run(fr *wire.Reader, bw *bufio.Writer) error {
	for {
		f, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("serviced: reading frame: %w", err)
		}
		typ, payload, refused := c.handle(f)
		if refused != nil {
			typ, payload = wire.TypeError, []byte(refused.Error())
		}
		if typ != 0 {
			if err = wire.WriteFrame(bw, typ, payload); err == nil {
				err = bw.Flush()
			}
		}
		if refused != nil && err != nil {
			return fmt.Errorf("serviced: %v (error frame not delivered: %v)", refused, err)
		}
		if refused != nil {
			return fmt.Errorf("serviced: %w", refused)
		}
		if err != nil {
			return err
		}
	}
}

// reply encodes a query answer into the connection's state buffer.
func (c *conn) reply(st wire.State, err error) (byte, []byte, error) {
	if err != nil {
		return 0, nil, err
	}
	c.state = wire.AppendState(c.state[:0], st)
	return wire.TypeState, c.state, nil
}

// sessionOps names the frames that act on the registered session, indexed
// by frame type ("" for the rest): a lookup on every pack costs no hash.
var sessionOps = [256]string{wire.TypePack: "pack", wire.TypeSnapshot: "snapshot", wire.TypeDiff: "diff", wire.TypeClose: "close"}

// handle advances the protocol by one frame: Hello, then Register, then
// any number of Pack/Snapshot/Diff/Stats, then Close. It returns the reply
// frame, typ 0 for none (a pack inside its credit window), or the error
// that refuses the frame. It does no I/O. A reply payload is valid until
// the next frame: Credit and State payloads live in storage the connection
// and its session keep.
func (c *conn) handle(f wire.Frame) (typ byte, payload []byte, err error) {
	op := sessionOps[f.Type]
	switch {
	case c.format == 0:
		return c.hello(f)
	case f.Type == wire.TypeStats:
		st, _ := c.d.Status() // its error is always nil
		if payload, err = json.Marshal(st); err != nil {
			err = fmt.Errorf("status: %w", err)
		}
		return wire.TypeStatsAck, payload, err
	case f.Type == wire.TypeRegister:
		return c.register(f.Payload)
	case op == "":
		return 0, nil, fmt.Errorf("unexpected frame type %#x", f.Type)
	case c.sess == nil:
		return 0, nil, fmt.Errorf("%s before register", op)
	case c.sess.closed:
		err = fmt.Errorf("%s after close", op)
	default:
		typ, payload, err = c.request(f)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("session %d: %w", c.sess.id, err)
	}
	return typ, payload, nil
}

// hello negotiates the pack format: the client's highest, clamped to the
// daemon's.
func (c *conn) hello(f wire.Frame) (byte, []byte, error) {
	if f.Type != wire.TypeHello {
		return 0, nil, fmt.Errorf("expected hello, got frame type %#x", f.Type)
	}
	h, err := wire.ParseHello(f.Payload)
	if err != nil {
		return 0, nil, err
	}
	if h.Proto != wire.ProtoVersion {
		return 0, nil, fmt.Errorf("protocol version %d unsupported (want %d)", h.Proto, wire.ProtoVersion)
	}
	if h.MaxFormat < trace.PackV1 {
		return 0, nil, fmt.Errorf("client announced no usable pack format (%d)", h.MaxFormat)
	}
	c.format = min(int(h.MaxFormat), trace.PackV3)
	return wire.TypeHelloAck, wire.EncodeHelloAck(wire.HelloAck{Proto: wire.ProtoVersion, Format: byte(c.format)}), nil
}

// register opens the connection's one session under the daemon's live cap.
func (c *conn) register(p []byte) (byte, []byte, error) {
	if c.sess != nil {
		return 0, nil, errors.New("duplicate register on one connection")
	}
	meta, err := wire.ParseSessionMeta(p)
	if err != nil {
		return 0, nil, err
	}
	id, ok := c.d.beginSession()
	if !ok {
		return 0, nil, fmt.Errorf("daemon at capacity (%d live sessions)", c.d.opts.MaxSessions)
	}
	gov := newGovernor(c.d.opts.BacklogHighBytes, c.d.opts.Window, c.d.opts.SessionBudgetBytes)
	c.sess = newSession(id, c.format, meta, gov, c.d.opts.Workers)
	c.d.trackSession(c.sess)
	win := gov.window()
	c.granted = int64(win)
	return wire.TypeRegisterAck, wire.EncodeRegisterAck(wire.RegisterAck{Session: id, Window: uint32(win)}), nil
}

// request serves one frame of the open session, answered with a credit
// grant, a state or the final report.
func (c *conn) request(f wire.Frame) (byte, []byte, error) {
	switch f.Type {
	case wire.TypePack:
		src, pack, err := wire.ParsePack(f.Payload)
		if err == nil {
			err = c.sess.ingest(src, pack)
		}
		if err != nil {
			return 0, nil, err
		}
		if c.received++; c.received < c.granted {
			return 0, nil, nil
		}
		win := int64(c.sess.gov.window())
		c.granted = c.received + win
		n := copy(c.grant[:], wire.EncodeCredit(wire.Credit{Credits: uint32(win), Window: uint32(win)}))
		return wire.TypeCredit, c.grant[:n], nil
	case wire.TypeSnapshot:
		return c.reply(c.sess.snapshot())
	case wire.TypeDiff:
		dr, err := wire.ParseDiffReq(f.Payload)
		if err != nil {
			return 0, nil, err
		}
		return c.reply(c.sess.diff(dr.Cursor))
	}
	// Close runs the final flush and retires the session into the
	// daemon's history.
	cm, err := wire.ParseCloseMeta(f.Payload)
	if err != nil {
		return 0, nil, err
	}
	rep, err := c.sess.close(cm)
	if err != nil {
		return 0, nil, err
	}
	c.d.endSession(c.sess, rep)
	c.rep = rep
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		return 0, nil, fmt.Errorf("render: %w", err)
	}
	_, late, _ := c.sess.windowStats()
	payload, err := wire.EncodeFinalReport(wire.FinalReport{
		Session:    c.sess.id,
		Events:     c.sess.analyzedEvents(),
		Packs:      c.sess.packs.Load(),
		Shed:       c.sess.shedTotal(),
		MaxLevel:   c.sess.gov.maxLevel(),
		Windows:    c.sess.sealedWindows(),
		LateEvents: late,
		Rendered:   buf.String(),
	})
	return wire.TypeReport, payload, err
}
