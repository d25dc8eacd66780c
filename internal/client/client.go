// Package client is the profiling daemon's SDK: the session-side half of
// the wire protocol. A Client wraps any byte-stream connection (loopback
// TCP via Dial, or an in-process net.Pipe via New), negotiates the pack
// wire format, registers a session, streams packs under the daemon's
// credit window, polls incremental state through the Snapshot/Diff
// cursor API, and collects the final report at Close. Packs are batched:
// a credit window's packs go out in one write, when its last credit is
// spent or with the next request, whichever comes first (DESIGN §14.5).
package client

import (
	"bufio"
	"fmt"
	"io"
	"net"

	"repro/internal/analysis"
	"repro/internal/exp"
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

	format  int
	session uint64
	// avail is the client's credit balance: decremented per pack, topped
	// up by the daemon's Credit frames. At zero, SendPack blocks reading
	// until a grant arrives — the compliant behaviour the daemon's
	// admission governor paces by shrinking the window.
	avail  int
	closed bool
	shut   bool // Shutdown ran: a buffered SendPack would not notice
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
	if err := c.send(wire.TypeHello, wire.EncodeHello(wire.Hello{Proto: wire.ProtoVersion, MaxFormat: byte(maxFormat)})); err != nil {
		conn.Close()
		return nil, err
	}
	f, err := c.recv(wire.TypeHelloAck)
	if err != nil {
		conn.Close()
		return nil, err
	}
	ack, err := wire.ParseHelloAck(f.Payload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if ack.Proto != wire.ProtoVersion {
		conn.Close()
		return nil, fmt.Errorf("client: daemon speaks protocol %d, want %d", ack.Proto, wire.ProtoVersion)
	}
	c.format = int(ack.Format)
	return c, nil
}

// Dial connects to a daemon over TCP and runs the hello handshake.
func Dial(addr string, maxFormat int) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return New(conn, maxFormat)
}

func (c *Client) send(typ byte, payload []byte) error {
	if err := wire.WriteFrame(c.bw, typ, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// recv reads frames until one of the wanted type arrives. Credit frames
// are folded into the balance along the way; an error frame becomes the
// returned error.
func (c *Client) recv(want byte) (wire.Frame, error) {
	for {
		f, err := c.fr.Next()
		if err != nil {
			return wire.Frame{}, fmt.Errorf("client: reading frame: %w", err)
		}
		switch f.Type {
		case want:
			return f, nil
		case wire.TypeCredit:
			cr, err := wire.ParseCredit(f.Payload)
			if err != nil {
				return wire.Frame{}, err
			}
			c.avail += int(cr.Credits)
		case wire.TypeError:
			return wire.Frame{}, fmt.Errorf("client: daemon: %s", f.Payload)
		default:
			return wire.Frame{}, fmt.Errorf("client: unexpected frame type %#x (want %#x)", f.Type, want)
		}
	}
}

// Register opens a session.
func (c *Client) Register(meta wire.SessionMeta) (uint64, error) {
	if c.session != 0 {
		return 0, fmt.Errorf("client: session %d already registered", c.session)
	}
	payload, err := wire.EncodeSessionMeta(meta)
	if err != nil {
		return 0, err
	}
	if err := c.send(wire.TypeRegister, payload); err != nil {
		return 0, err
	}
	f, err := c.recv(wire.TypeRegisterAck)
	if err != nil {
		return 0, err
	}
	ack, err := wire.ParseRegisterAck(f.Payload)
	if err != nil {
		return 0, err
	}
	c.session = ack.Session
	c.avail = int(ack.Window)
	return ack.Session, nil
}

// waitCredit blocks until the credit balance is positive. The daemon
// grants a fresh batch exactly when the issued credits are exhausted, so
// at zero balance a Credit frame is guaranteed in flight — and reading
// it before writing anything keeps the protocol deadlock-free even on
// unbuffered transports (net.Pipe), where a daemon blocked writing the
// grant cannot simultaneously read a request.
func (c *Client) waitCredit() error {
	for c.session != 0 && !c.closed && c.avail <= 0 {
		f, err := c.recv(wire.TypeCredit)
		if err != nil {
			return err
		}
		cr, err := wire.ParseCredit(f.Payload)
		if err != nil {
			return err
		}
		c.avail += int(cr.Credits)
	}
	return nil
}

// SendPack streams one encoded pack for the given writer id, honouring
// the daemon's credit window: at zero balance it blocks until the daemon
// grants more. The pack is buffered, not written: the window's packs reach
// the connection together when the last credit is spent, when the buffer
// fills, or ahead of the next request.
func (c *Client) SendPack(src uint32, pack []byte) error {
	switch {
	case c.shut:
		return fmt.Errorf("client: send after shutdown")
	case c.session == 0:
		return fmt.Errorf("client: send before register")
	}
	if err := c.waitCredit(); err != nil {
		return err
	}
	c.avail--
	if err := wire.WritePack(c.bw, src, pack); err != nil || c.avail > 0 {
		return err
	}
	return c.bw.Flush()
}

// Snapshot fetches the session's full merged analysis state; the
// returned epoch (State.To) is a valid Diff cursor.
func (c *Client) Snapshot() (wire.State, error) {
	if err := c.waitCredit(); err != nil {
		return wire.State{}, err
	}
	if err := c.send(wire.TypeSnapshot, nil); err != nil {
		return wire.State{}, err
	}
	f, err := c.recv(wire.TypeState)
	if err != nil {
		return wire.State{}, err
	}
	return parseStateCopy(f.Payload)
}

// Diff fetches the state delta since the cursor: mergeable partials
// covering epochs (cursor, State.To], or the full state (State.Full)
// when the cursor aged out of the daemon's epoch log.
func (c *Client) Diff(cursor uint64) (wire.State, error) {
	if err := c.waitCredit(); err != nil {
		return wire.State{}, err
	}
	if err := c.send(wire.TypeDiff, wire.EncodeDiffReq(wire.DiffReq{Cursor: cursor})); err != nil {
		return wire.State{}, err
	}
	f, err := c.recv(wire.TypeState)
	if err != nil {
		return wire.State{}, err
	}
	return parseStateCopy(f.Payload)
}

// parseStateCopy parses a state frame and unaliases the per-app slices
// from the reader's reused buffer.
func parseStateCopy(payload []byte) (wire.State, error) {
	st, err := wire.ParseState(payload)
	if err != nil {
		return wire.State{}, err
	}
	for i, a := range st.Apps {
		st.Apps[i] = append([]byte(nil), a...)
	}
	return st, nil
}

// Close ends the session and returns the daemon's final report. The
// connection remains usable for Stats until Shutdown.
func (c *Client) Close(meta wire.CloseMeta) (wire.FinalReport, error) {
	if c.session == 0 {
		return wire.FinalReport{}, fmt.Errorf("client: close before register")
	}
	if err := c.waitCredit(); err != nil {
		return wire.FinalReport{}, err
	}
	payload, err := wire.EncodeCloseMeta(meta)
	if err != nil {
		return wire.FinalReport{}, err
	}
	if err := c.send(wire.TypeClose, payload); err != nil {
		return wire.FinalReport{}, err
	}
	f, err := c.recv(wire.TypeReport)
	if err != nil {
		return wire.FinalReport{}, err
	}
	c.closed = true // no further credits arrive on a closed session
	return wire.ParseFinalReport(f.Payload)
}

// Stats fetches the daemon's status JSON.
func (c *Client) Stats() ([]byte, error) {
	if err := c.send(wire.TypeStats, nil); err != nil {
		return nil, err
	}
	f, err := c.recv(wire.TypeStatsAck)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), f.Payload...), nil
}

// Shutdown closes the connection; every later call fails at once. Packs
// still buffered are dropped, as the session they belong to is.
func (c *Client) Shutdown() error {
	c.shut = true
	return c.conn.Close()
}

// --- capture replay --------------------------------------------------------

// SessionMetaFromCapture builds the Register payload for a captured run:
// the same title, chapter order, module selection and call-site labels
// the in-process pipeline would use.
func SessionMetaFromCapture(cp *exp.Capture) wire.SessionMeta {
	m := wire.SessionMeta{
		Title:            fmt.Sprintf("online profiling report (%s)", cp.PlatformName),
		WaitState:        cp.WaitState,
		TemporalWindowNs: cp.TemporalWindowNs,
		Callsites:        cp.Callsites,
		Sizes:            cp.Sizes,
		WindowNs:         cp.WindowNs,
		WindowSlideNs:    cp.WindowSlideNs,
		WindowGraceNs:    cp.WindowGraceNs,
	}
	for _, a := range cp.Apps {
		m.Apps = append(m.Apps, wire.AppMeta{
			Name:   a.Name,
			Procs:  a.Procs,
			AppID:  a.AppID,
			Labels: cp.Labels,
		})
	}
	return m
}

// CloseMetaFromCapture builds the Close payload: per-application wall
// times and the per-stream loss accounting, the run facts only the
// client side knows.
func CloseMetaFromCapture(cp *exp.Capture) wire.CloseMeta {
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

// Replay runs a captured workload through a full session: Register, every
// pack in capture order, Close. When diffEvery > 0 it additionally polls
// Diff every diffEvery packs and verifies at the end that the replayed
// cursor state matches a fresh Snapshot — the query API's convergence
// check. Returns the daemon's final report.
func (c *Client) Replay(cp *exp.Capture, diffEvery int) (wire.FinalReport, error) {
	if cp.PackVersion > c.format {
		return wire.FinalReport{}, fmt.Errorf("client: capture uses pack v%d but the daemon negotiated v%d", cp.PackVersion, c.format)
	}
	meta := SessionMetaFromCapture(cp)
	if _, err := c.Register(meta); err != nil {
		return wire.FinalReport{}, err
	}
	var replay *DiffReplayer
	if diffEvery > 0 {
		replay = NewDiffReplayer(meta)
	}
	for i, p := range cp.Packs {
		if err := c.SendPack(uint32(p.Src), p.Data); err != nil {
			return wire.FinalReport{}, err
		}
		if replay != nil && (i+1)%diffEvery == 0 {
			st, err := c.Diff(replay.Cursor())
			if err != nil {
				return wire.FinalReport{}, err
			}
			if err := replay.Apply(st); err != nil {
				return wire.FinalReport{}, err
			}
		}
	}
	if replay != nil {
		st, err := c.Diff(replay.Cursor())
		if err != nil {
			return wire.FinalReport{}, err
		}
		if err := replay.Apply(st); err != nil {
			return wire.FinalReport{}, err
		}
		snap, err := c.Snapshot()
		if err != nil {
			return wire.FinalReport{}, err
		}
		if err := replay.Verify(snap); err != nil {
			return wire.FinalReport{}, err
		}
	}
	return c.Close(CloseMetaFromCapture(cp))
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
// from their bytes (analysis.MergeEncoded), so applying a delta costs
// what the delta holds, not the size of the replayed state.
func (r *DiffReplayer) Apply(st wire.State) error {
	if st.Full {
		for i, am := range r.apps {
			fresh := analysis.NewPartial(am.AppID, am.Options())
			if i < len(st.Apps) {
				if err := fresh.MergeEncoded(st.Apps[i]); err != nil {
					return err
				}
			}
			r.apps[i] = fresh
		}
		r.cursor = st.To
		return nil
	}
	if st.From != r.cursor {
		return fmt.Errorf("client: diff covers (%d, %d] but replay cursor is %d", st.From, st.To, r.cursor)
	}
	for i := range st.Apps {
		if i >= len(r.apps) {
			return fmt.Errorf("client: diff names app %d, session has %d", i, len(r.apps))
		}
		if err := r.apps[i].MergeEncoded(st.Apps[i]); err != nil {
			return err
		}
	}
	r.cursor = st.To
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
