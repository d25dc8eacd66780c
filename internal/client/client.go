// Package client is the profiling daemon's SDK: the session-side half of
// the wire protocol. A Client wraps any byte-stream connection (loopback
// TCP via Dial, or an in-process net.Pipe via New), negotiates the pack
// wire format, registers a session, streams packs under the daemon's
// credit window, polls incremental state through the Snapshot/Diff
// cursor API, and collects the final report at Close. Packs are batched:
// a credit window's packs go out in one write, when its last credit is
// spent or with the next request, whichever comes first (DESIGN §14.5).
// Replaying a simulated capture is (*exp.Capture).Replay, on the
// simulator's side: a client links no simulator.
package client

import (
	"bufio"
	"fmt"
	"io"
	"net"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Client is one connection to the profiling daemon. Not safe for
// concurrent use: the protocol is strictly request/response per
// connection, like the underlying session.
type Client struct {
	conn io.ReadWriteCloser
	fr   *wire.Reader
	bw   *bufio.Writer

	format int
	sess   session
	// req is where a Diff request's cursor is encoded, like the daemon's
	// credit grant: a payload handed to the frame writer escapes.
	req [8]byte
	// apps and bufs are where Snapshot and Diff answers live: the answer's
	// per-app header and one buffer per app, each app's bytes copied out of
	// the frame reader's buffer, which the next frame overwrites. An answer
	// is valid until the next Snapshot or Diff. Each buffer keeps the
	// capacity of the largest answer its app has had until Shutdown drops
	// them: a Client carries one session, so none outlives it.
	apps [][]byte
	bufs [][]byte
}

// session is the client's half of the protocol state: the registered
// session, its credit balance and how far its life has gone. It does no
// I/O; the Client asks it before every session request and feeds it every
// frame the daemon answers with.
type session struct {
	id uint64
	// avail is the credit balance: decremented per pack, topped up by the
	// daemon's Credit frames. At zero, SendPack blocks reading until a
	// grant arrives — the compliant behaviour the daemon's admission
	// governor paces by shrinking the window.
	avail  int
	closed bool
	shut   bool // Shutdown ran: a buffered SendPack would not notice
}

// ready refuses the session requests the daemon would refuse: before
// register, after close and after shutdown. Refused here, op fails at
// once and the connection stays usable; sent, it would end the
// connection under a later, unrelated call.
func (s *session) ready(op string) error {
	switch {
	case s.shut:
		return fmt.Errorf("client: %s after shutdown", op)
	case s.id == 0:
		return fmt.Errorf("client: %s before register", op)
	case s.closed:
		return fmt.Errorf("client: %s after close", op)
	}
	return nil
}

// starved reports whether a Credit frame must be read before the next
// request: an open session with its balance spent. The daemon grants a
// fresh batch exactly when the issued credits are exhausted, so one is
// then guaranteed in flight.
func (s *session) starved() bool { return s.id != 0 && !s.closed && s.avail <= 0 }

// observe advances the session by one frame from the daemon: the
// register ack opens it with its first window, a Credit tops the balance
// up, and the final report closes it.
func (s *session) observe(f wire.Frame) error {
	switch f.Type {
	case wire.TypeRegisterAck:
		ack, err := wire.ParseRegisterAck(f.Payload)
		if err != nil {
			return err
		}
		s.id, s.avail = ack.Session, int(ack.Window)
	case wire.TypeCredit:
		cr, err := wire.ParseCredit(f.Payload)
		if err != nil {
			return err
		}
		s.avail += int(cr.Credits)
	case wire.TypeReport:
		s.closed = true // no further credits arrive on a closed session
	}
	return nil
}

// New wraps an established connection and runs the hello handshake,
// announcing maxFormat (0 = trace.PackV3) as the highest pack format
// this client can stream.
func New(conn io.ReadWriteCloser, maxFormat int) (*Client, error) {
	if maxFormat <= 0 {
		maxFormat = trace.PackV3
	}
	if maxFormat > trace.PackV3 {
		return nil, fmt.Errorf("client: unknown pack format %d", maxFormat)
	}
	c := &Client{conn: conn, fr: wire.NewReader(conn), bw: bufio.NewWriterSize(conn, wire.ConnBuffer)}
	f, err := c.call(wire.TypeHello, wire.EncodeHello(wire.Hello{Proto: wire.ProtoVersion, MaxFormat: byte(maxFormat)}), wire.TypeHelloAck)
	var ack wire.HelloAck
	if err == nil {
		ack, err = wire.ParseHelloAck(f.Payload)
	}
	if err == nil && ack.Proto != wire.ProtoVersion {
		err = fmt.Errorf("client: daemon speaks protocol %d, want %d", ack.Proto, wire.ProtoVersion)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.format = int(ack.Format)
	return c, nil
}

// Format is the pack wire format the hello negotiated: the packs this
// client sends must be in it.
func (c *Client) Format() int { return c.format }

// Dial connects to a daemon over TCP and runs the hello handshake.
func Dial(addr string, maxFormat int) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return New(conn, maxFormat)
}

// call writes one request frame, with any packs buffered ahead of it, and
// reads the answer of type want.
func (c *Client) call(typ byte, payload []byte, want byte) (wire.Frame, error) {
	err := wire.WriteFrame(c.bw, typ, payload)
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		return wire.Frame{}, err
	}
	return c.recv(want)
}

// recv reads frames until one of the wanted type arrives, feeding each to
// the session: Credit frames are folded into the balance along the way;
// an error frame becomes the returned error.
func (c *Client) recv(want byte) (wire.Frame, error) {
	for {
		f, err := c.fr.Next()
		if err != nil {
			return wire.Frame{}, fmt.Errorf("client: reading frame: %w", err)
		}
		switch {
		case f.Type == wire.TypeError:
			return wire.Frame{}, fmt.Errorf("client: daemon: %s", f.Payload)
		case f.Type != want && f.Type != wire.TypeCredit:
			return wire.Frame{}, fmt.Errorf("client: unexpected frame type %#x (want %#x)", f.Type, want)
		}
		if err := c.sess.observe(f); err != nil || f.Type == want {
			return f, err
		}
	}
}

// Register opens a session.
func (c *Client) Register(meta wire.SessionMeta) (uint64, error) {
	if c.sess.id != 0 {
		return 0, fmt.Errorf("client: session %d already registered", c.sess.id)
	}
	payload, err := wire.EncodeSessionMeta(meta)
	if err != nil {
		return 0, err
	}
	if _, err := c.call(wire.TypeRegister, payload, wire.TypeRegisterAck); err != nil {
		return 0, err
	}
	return c.sess.id, nil
}

// waitCredit blocks until the credit balance is positive. Reading the
// grant in flight before writing anything keeps the protocol
// deadlock-free even on unbuffered transports (net.Pipe), where a daemon
// blocked writing the grant cannot simultaneously read a request.
func (c *Client) waitCredit() error {
	for c.sess.starved() {
		if _, err := c.recv(wire.TypeCredit); err != nil {
			return err
		}
	}
	return nil
}

// ready clears a session request: refused at once when the daemon would
// refuse it, and held until the grant in flight, if any, is read.
func (c *Client) ready(op string) error {
	if err := c.sess.ready(op); err != nil {
		return err
	}
	return c.waitCredit()
}

// SendPack streams one encoded pack for the given writer id, honouring
// the daemon's credit window: at zero balance it blocks until the daemon
// grants more. The pack is buffered, not written: the window's packs reach
// the connection together when the last credit is spent, when the buffer
// fills, or ahead of the next request.
func (c *Client) SendPack(src uint32, pack []byte) error {
	if err := c.ready("send"); err != nil {
		return err
	}
	c.sess.avail--
	if err := wire.WritePack(c.bw, src, pack); err != nil || c.sess.avail > 0 {
		return err
	}
	return c.bw.Flush()
}

// Snapshot fetches the session's full merged analysis state; the
// returned epoch (State.To) is a valid Diff cursor. The answer is valid
// until the next Snapshot or Diff, which reuses its storage: the client
// holds each app's largest answer until Shutdown.
func (c *Client) Snapshot() (wire.State, error) {
	if err := c.ready("snapshot"); err != nil {
		return wire.State{}, err
	}
	f, err := c.call(wire.TypeSnapshot, nil, wire.TypeState)
	if err != nil {
		return wire.State{}, err
	}
	return c.keep(f.Payload)
}

// Diff fetches the state delta since the cursor: mergeable partials
// covering epochs (cursor, State.To], or the full state (State.Full)
// when the cursor aged out of the daemon's epoch log. The answer is valid
// until the next Snapshot or Diff, like Snapshot's.
func (c *Client) Diff(cursor uint64) (wire.State, error) {
	if err := c.ready("diff"); err != nil {
		return wire.State{}, err
	}
	n := copy(c.req[:], wire.EncodeDiffReq(wire.DiffReq{Cursor: cursor}))
	f, err := c.call(wire.TypeDiff, c.req[:n], wire.TypeState)
	if err != nil {
		return wire.State{}, err
	}
	return c.keep(f.Payload)
}

// keep parses a state frame into the client's answer storage, copying
// each app's bytes out of the frame reader's buffer into that app's own.
func (c *Client) keep(payload []byte) (wire.State, error) {
	st, err := wire.ParseStateInto(c.apps[:0], payload)
	if err != nil {
		return wire.State{}, err
	}
	c.apps = st.Apps
	for i, a := range st.Apps {
		if i == len(c.bufs) {
			c.bufs = append(c.bufs, nil)
		}
		c.bufs[i] = append(c.bufs[i][:0], a...)
		st.Apps[i] = c.bufs[i]
	}
	return st, nil
}

// Close ends the session and returns the daemon's final report. The
// connection remains usable for Stats until Shutdown.
func (c *Client) Close(meta wire.CloseMeta) (wire.FinalReport, error) {
	if err := c.ready("close"); err != nil {
		return wire.FinalReport{}, err
	}
	payload, err := wire.EncodeCloseMeta(meta)
	if err != nil {
		return wire.FinalReport{}, err
	}
	f, err := c.call(wire.TypeClose, payload, wire.TypeReport)
	if err != nil {
		return wire.FinalReport{}, err
	}
	return wire.ParseFinalReport(f.Payload)
}

// Stats fetches the daemon's status JSON.
func (c *Client) Stats() ([]byte, error) {
	if err := c.waitCredit(); err != nil {
		return nil, err
	}
	f, err := c.call(wire.TypeStats, nil, wire.TypeStatsAck)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), f.Payload...), nil
}

// Shutdown closes the connection; every later call fails at once. Packs
// still buffered are dropped, as the session they belong to is, and the
// client lets go of its answer storage: the last answer stays the
// caller's.
func (c *Client) Shutdown() error {
	c.sess.shut = true
	c.apps, c.bufs = nil, nil
	return c.conn.Close()
}

// DiffReplayer accumulates Diff deltas client-side: the "live dashboard"
// consumer of the query API. Its merged state must equal the daemon's
// Snapshot at the same cursor — Verify asserts exactly that, byte for
// byte, through the partials' canonical encoding.
type DiffReplayer struct {
	cursor uint64
	apps   []*analysis.Partial
}

// NewDiffReplayer builds an empty replayer for a session's metadata.
func NewDiffReplayer(meta wire.SessionMeta) *DiffReplayer {
	r := &DiffReplayer{}
	for _, am := range meta.Apps {
		r.apps = append(r.apps, analysis.NewPartial(am.AppID, analysis.PartialOptions{
			AppSize:          am.Procs,
			WaitState:        meta.WaitState,
			TemporalWindowNs: meta.TemporalWindowNs,
			Callsites:        meta.Callsites,
			Sizes:            meta.Sizes,
			WindowNs:         meta.WindowNs,
			WindowSlideNs:    meta.WindowSlideNs,
		}))
	}
	return r
}

// Cursor returns the epoch the replayed state covers.
func (r *DiffReplayer) Cursor() uint64 { return r.cursor }

// Apply folds one State answer into the replayed state: deltas merge,
// full states replace. Either way the partials are folded in straight
// from their bytes, so applying a delta costs what the delta holds, not
// the size of the replayed state. All or nothing: every app's bytes are
// checked (Partial.CheckEncoded) before any is folded (MergeChecked), so
// an answer Apply refuses leaves the replayed state and its cursor as
// they were.
func (r *DiffReplayer) Apply(st wire.State) error {
	if len(st.Apps) > len(r.apps) {
		return fmt.Errorf("client: answer names %d apps, session has %d", len(st.Apps), len(r.apps))
	}
	if !st.Full && st.From != r.cursor {
		return fmt.Errorf("client: diff covers (%d, %d] but replay cursor is %d", st.From, st.To, r.cursor)
	}
	into := r.apps
	if st.Full {
		into = make([]*analysis.Partial, len(r.apps))
		for i, am := range r.apps {
			into[i] = analysis.NewPartial(am.AppID, am.Options())
		}
	}
	for i, a := range st.Apps {
		if err := into[i].CheckEncoded(a); err != nil {
			return fmt.Errorf("client: app %d: %w", i, err)
		}
	}
	for i, a := range st.Apps {
		if err := into[i].MergeChecked(a); err != nil {
			return fmt.Errorf("client: app %d: %w", i, err)
		}
	}
	r.apps, r.cursor = into, st.To
	return nil
}

// Verify checks the replayed state against a full snapshot: same epoch,
// and canonically byte-identical per application.
func (r *DiffReplayer) Verify(snap wire.State) error {
	if snap.To != r.cursor {
		return fmt.Errorf("client: snapshot at epoch %d, replay at %d", snap.To, r.cursor)
	}
	if len(snap.Apps) != len(r.apps) {
		return fmt.Errorf("client: snapshot has %d apps, replay %d", len(snap.Apps), len(r.apps))
	}
	for i, am := range r.apps {
		got := am.AppendCanonical(nil)
		if string(got) != string(snap.Apps[i]) {
			return fmt.Errorf("client: app %d: diff-replayed state diverges from snapshot (%d vs %d bytes)", i, len(got), len(snap.Apps[i]))
		}
	}
	return nil
}
