// Package wire is the profiling daemon's transport framing: a
// length-prefixed binary frame protocol that carries the existing pack
// byte format (trace.PackV1/V2/V3) over any io.ReadWriter — loopback or
// real TCP, an in-process net.Pipe, anything byte-stream shaped. It is
// the network analogue of the vmpi stream layer: the hello frame
// announces the client's maximum pack format exactly like the vmpi hello
// tag announces formats>1 at stream open, and the credit frame plays the
// role of the paper's NA send-window.
//
// Every parse path is defensive: hostile lengths, truncated headers and
// format-mismatch frames return errors, never panic or over-read — the
// same contract the pack decoders hold under fuzzing.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// ProtoVersion is the frame-protocol version carried in the hello
// handshake. A daemon refuses clients speaking a different one.
const ProtoVersion = 1

// Frame types. The session state machine (DESIGN §14) defines which are
// legal when: Hello must come first, then Register, then any number of
// Pack/Snapshot/Diff, then Close. Stats is legal on any registered or
// unregistered connection.
const (
	// TypeHello is the client's opening frame: protocol version plus the
	// highest pack wire format it can produce.
	TypeHello = 0x01
	// TypeHelloAck answers with the negotiated pack format.
	TypeHelloAck = 0x02
	// TypeRegister opens a session (JSON SessionMeta payload).
	TypeRegister = 0x03
	// TypeRegisterAck returns the session id and the initial credit window.
	TypeRegisterAck = 0x04
	// TypePack carries one encoded event pack: u32 writer id + pack bytes.
	TypePack = 0x05
	// TypeCredit grants stream credits and publishes the current window.
	TypeCredit = 0x06
	// TypeSnapshot requests the full merged analysis state.
	TypeSnapshot = 0x07
	// TypeDiff requests the state delta since a client-held epoch cursor.
	TypeDiff = 0x08
	// TypeState answers Snapshot and Diff: an epoch range plus one encoded
	// analysis.Partial per application.
	TypeState = 0x09
	// TypeClose ends the session (JSON CloseMeta payload).
	TypeClose = 0x0A
	// TypeReport answers Close with the final report (JSON FinalReport).
	TypeReport = 0x0B
	// TypeStats requests the daemon's machine-wide status.
	TypeStats = 0x0C
	// TypeStatsAck answers Stats with the daemon status JSON.
	TypeStatsAck = 0x0D
	// TypeError reports a session-fatal error as a UTF-8 message.
	TypeError = 0x0E
)

// MaxFrameBytes bounds a frame payload. Packs are stream blocks (~1 MiB)
// and encoded partials are statistics tables; 64 MiB leaves room for
// giant-app partials while keeping a hostile length from driving a giant
// allocation.
const MaxFrameBytes = 64 << 20

// frameHeaderSize is the encoded frame header: 2 magic bytes, 1 type
// byte, 4 length bytes.
const frameHeaderSize = 7

// Frame is one decoded frame. Payload aliases the reader's internal
// buffer and is only valid until the next Read call.
type Frame struct {
	Type    byte
	Payload []byte
}

// appendHeader appends the header of a frame with an n-byte payload.
func appendHeader(b []byte, typ byte, n int) []byte {
	b = append(b, 'P', 'F', typ)
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if bw, ok := w.(*bufio.Writer); ok {
		// A connection's writer takes the header in its own buffer; through
		// the interface the header array below escapes to the heap.
		return writeBuffered(bw, typ, nil, payload)
	}
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("wire: frame payload %d exceeds limit %d", len(payload), MaxFrameBytes)
	}
	var hdr [frameHeaderSize]byte
	if _, err := w.Write(appendHeader(hdr[:0], typ, len(payload))); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// maxFrameHead bounds the fixed-size payload prefix writeBuffered takes
// beside the header (a pack frame's writer id).
const maxFrameHead = 4

// writeBuffered writes one frame whose payload is head followed by body
// into a buffered connection, allocating nothing: header and head are
// appended into bw's own buffer, body is handed over as it is.
func writeBuffered(bw *bufio.Writer, typ byte, head, body []byte) error {
	n := len(head) + len(body)
	if n > MaxFrameBytes {
		return fmt.Errorf("wire: frame payload %d exceeds limit %d", n, MaxFrameBytes)
	}
	if bw.Available() < frameHeaderSize+maxFrameHead {
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	if _, err := bw.Write(append(appendHeader(bw.AvailableBuffer(), typ, n), head...)); err != nil {
		return err
	}
	_, err := bw.Write(body)
	return err
}

// WritePack writes one pack frame — writer id, then the pack bytes as they
// are — into a buffered connection, without assembling the payload first
// (EncodePack copies the pack to prefix it).
func WritePack(bw *bufio.Writer, src uint32, pack []byte) error {
	var id [maxFrameHead]byte
	binary.LittleEndian.PutUint32(id[:], src)
	return writeBuffered(bw, TypePack, id[:], pack)
}

// Reader decodes frames from a byte stream, reusing one payload buffer
// across frames (the session ingest path consumes each pack
// synchronously, so aliasing is safe and keeps steady-state framing
// allocation-free).
type Reader struct {
	r   *bufio.Reader
	buf []byte
	// hdr is the frame header being read: kept here, a header array local
	// to Next would escape through the io.Reader and cost an allocation a
	// frame.
	hdr [frameHeaderSize]byte
	// max overrides MaxFrameBytes when nonzero (tests shrink it).
	max int
}

// ConnBuffer sizes a connection's read buffer, and the client's write
// buffer: a credit window of packs crosses in one syscall.
const ConnBuffer = 64 << 10

// NewReader wraps a byte stream in a frame reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, ConnBuffer)}
}

func (fr *Reader) limit() int {
	if fr.max > 0 {
		return fr.max
	}
	return MaxFrameBytes
}

// Next reads one frame. io.EOF is returned only at a clean frame
// boundary; a connection dying mid-frame surfaces as
// io.ErrUnexpectedEOF, which is how the daemon tells a finished peer
// from a truncated one.
func (fr *Reader) Next() (Frame, error) {
	hdr := &fr.hdr
	if _, err := io.ReadFull(fr.r, hdr[:1]); err != nil {
		return Frame{}, err // clean EOF allowed at a frame boundary
	}
	if _, err := io.ReadFull(fr.r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	if hdr[0] != 'P' || hdr[1] != 'F' {
		return Frame{}, fmt.Errorf("wire: bad frame magic %#x %#x", hdr[0], hdr[1])
	}
	n := int(binary.LittleEndian.Uint32(hdr[3:]))
	if n > fr.limit() {
		return Frame{}, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, fr.limit())
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return Frame{Type: hdr[2], Payload: fr.buf}, nil
}

// --- fixed binary payloads -------------------------------------------------

// Hello is the client's opening announcement.
type Hello struct {
	// Proto is the frame-protocol version (ProtoVersion).
	Proto byte
	// MaxFormat is the highest pack wire format the client can produce
	// (trace.PackV1..PackV3).
	MaxFormat byte
}

// EncodeHello encodes a hello payload.
func EncodeHello(h Hello) []byte { return []byte{h.Proto, h.MaxFormat} }

// ParseHello decodes a hello payload.
func ParseHello(p []byte) (Hello, error) {
	if len(p) != 2 {
		return Hello{}, fmt.Errorf("wire: hello payload %d bytes, want 2", len(p))
	}
	return Hello{Proto: p[0], MaxFormat: p[1]}, nil
}

// HelloAck is the daemon's negotiation answer.
type HelloAck struct {
	Proto byte
	// Format is the negotiated pack wire format: min(client max, daemon
	// max). Every pack the session streams must use exactly this format.
	Format byte
}

// EncodeHelloAck encodes a hello acknowledgement.
func EncodeHelloAck(h HelloAck) []byte { return []byte{h.Proto, h.Format} }

// ParseHelloAck decodes a hello acknowledgement.
func ParseHelloAck(p []byte) (HelloAck, error) {
	if len(p) != 2 {
		return HelloAck{}, fmt.Errorf("wire: hello-ack payload %d bytes, want 2", len(p))
	}
	return HelloAck{Proto: p[0], Format: p[1]}, nil
}

// RegisterAck returns the session identity and the opening credit grant.
type RegisterAck struct {
	Session uint64
	// Window is the credit window: the number of pack frames the client
	// may have in flight before waiting for a Credit frame.
	Window uint32
}

// EncodeRegisterAck encodes a register acknowledgement.
func EncodeRegisterAck(a RegisterAck) []byte {
	p := make([]byte, 12)
	binary.LittleEndian.PutUint64(p, a.Session)
	binary.LittleEndian.PutUint32(p[8:], a.Window)
	return p
}

// ParseRegisterAck decodes a register acknowledgement.
func ParseRegisterAck(p []byte) (RegisterAck, error) {
	if len(p) != 12 {
		return RegisterAck{}, fmt.Errorf("wire: register-ack payload %d bytes, want 12", len(p))
	}
	return RegisterAck{
		Session: binary.LittleEndian.Uint64(p),
		Window:  binary.LittleEndian.Uint32(p[8:]),
	}, nil
}

// Credit grants stream credits back to the client.
type Credit struct {
	// Credits is how many additional pack frames may be sent.
	Credits uint32
	// Window is the current full window size — the daemon's admission
	// governor shrinks it to throttle a hot tenant.
	Window uint32
}

// EncodeCredit encodes a credit grant.
func EncodeCredit(c Credit) []byte {
	p := make([]byte, 8)
	binary.LittleEndian.PutUint32(p, c.Credits)
	binary.LittleEndian.PutUint32(p[4:], c.Window)
	return p
}

// ParseCredit decodes a credit grant.
func ParseCredit(p []byte) (Credit, error) {
	if len(p) != 8 {
		return Credit{}, fmt.Errorf("wire: credit payload %d bytes, want 8", len(p))
	}
	return Credit{
		Credits: binary.LittleEndian.Uint32(p),
		Window:  binary.LittleEndian.Uint32(p[4:]),
	}, nil
}

// EncodePack prefixes a pack with its writer id. The pack bytes are the
// existing trace wire format, untouched — the frame protocol frames
// them, it does not re-encode them.
func EncodePack(src uint32, pack []byte) []byte {
	p := make([]byte, 4+len(pack))
	binary.LittleEndian.PutUint32(p, src)
	copy(p[4:], pack)
	return p
}

// ParsePack splits a pack frame into writer id and pack bytes. The pack
// slice aliases the payload.
func ParsePack(p []byte) (src uint32, pack []byte, err error) {
	if len(p) < 4 {
		return 0, nil, fmt.Errorf("wire: pack payload %d bytes, want >= 4", len(p))
	}
	return binary.LittleEndian.Uint32(p), p[4:], nil
}

// DiffReq asks for the deltas after the client-held epoch cursor.
type DiffReq struct{ Cursor uint64 }

// EncodeDiffReq encodes a diff request.
func EncodeDiffReq(d DiffReq) []byte {
	p := make([]byte, 8)
	binary.LittleEndian.PutUint64(p, d.Cursor)
	return p
}

// ParseDiffReq decodes a diff request.
func ParseDiffReq(p []byte) (DiffReq, error) {
	if len(p) != 8 {
		return DiffReq{}, fmt.Errorf("wire: diff payload %d bytes, want 8", len(p))
	}
	return DiffReq{Cursor: binary.LittleEndian.Uint64(p)}, nil
}

// State answers Snapshot and Diff: the analysis state (or state delta)
// covering epochs (From, To], one encoded analysis.Partial per
// application in registration order.
type State struct {
	From, To uint64
	// Full marks a complete state (Snapshot, or a Diff whose cursor aged
	// out of the retained epoch log): the client must replace, not merge.
	Full bool
	// Apps holds one encoded partial per application. Empty when nothing
	// changed in the range.
	Apps [][]byte
}

// EncodeState encodes a state answer.
func EncodeState(s State) []byte {
	n := 8 + 8 + 1 + 4
	for _, a := range s.Apps {
		n += 4 + len(a)
	}
	p := make([]byte, 0, n)
	p = binary.LittleEndian.AppendUint64(p, s.From)
	p = binary.LittleEndian.AppendUint64(p, s.To)
	if s.Full {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(len(s.Apps)))
	for _, a := range s.Apps {
		p = binary.LittleEndian.AppendUint32(p, uint32(len(a)))
		p = append(p, a...)
	}
	return p
}

// ParseState decodes a state answer. The per-app slices alias the
// payload.
func ParseState(p []byte) (State, error) {
	if len(p) < 21 {
		return State{}, fmt.Errorf("wire: state payload %d bytes, want >= 21", len(p))
	}
	// The full flag must be exactly 0 or 1: the codec is canonical in
	// both directions (parse∘encode is the identity), so a sloppy flag
	// byte is malformed input, not an alternate spelling of true.
	if p[16] > 1 {
		return State{}, fmt.Errorf("wire: state full flag %d", p[16])
	}
	s := State{
		From: binary.LittleEndian.Uint64(p),
		To:   binary.LittleEndian.Uint64(p[8:]),
		Full: p[16] == 1,
	}
	n := int(binary.LittleEndian.Uint32(p[17:]))
	off := 21
	// Each app section needs at least its 4-byte length; a hostile count
	// cannot claim more sections than the payload could hold.
	if n < 0 || n*4 > len(p)-off {
		return State{}, fmt.Errorf("wire: state claims %d apps in %d bytes", n, len(p))
	}
	for i := 0; i < n; i++ {
		if off+4 > len(p) {
			return State{}, fmt.Errorf("wire: truncated state at app %d", i)
		}
		l := int(binary.LittleEndian.Uint32(p[off:]))
		off += 4
		if l < 0 || l > len(p)-off {
			return State{}, fmt.Errorf("wire: state app %d claims %d bytes of %d left", i, l, len(p)-off)
		}
		s.Apps = append(s.Apps, p[off:off+l])
		off += l
	}
	if off != len(p) {
		return State{}, fmt.Errorf("wire: %d trailing bytes after state", len(p)-off)
	}
	return s, nil
}

// --- JSON control payloads -------------------------------------------------

// AppMeta describes one application of a session.
type AppMeta struct {
	// Name is the application (report chapter) name.
	Name string `json:"name"`
	// Procs is the application's rank count.
	Procs int `json:"procs"`
	// AppID is the pack-header application id the client's packs carry.
	AppID uint32 `json:"app_id"`
	// Labels maps call-site context ids to human labels (callsite module).
	Labels map[uint32]string `json:"labels,omitempty"`
}

// SessionMeta is the Register payload: everything the daemon needs to
// build the session's analysis pipelines and, at Close, the report.
type SessionMeta struct {
	// Title heads the final report.
	Title string `json:"title"`
	// Apps lists the session's applications in chapter order.
	Apps []AppMeta `json:"apps"`
	// WaitState, TemporalWindowNs, Callsites and Sizes select the optional
	// analysis modules, exactly like exp.ProfileOptions.
	WaitState        bool  `json:"wait_state,omitempty"`
	TemporalWindowNs int64 `json:"temporal_window_ns,omitempty"`
	Callsites        bool  `json:"callsites,omitempty"`
	Sizes            bool  `json:"sizes,omitempty"`
	// WindowNs enables the time-resolved windowed analysis with the given
	// window width in virtual nanoseconds (0 = off): Snapshot/Diff states
	// then carry per-window sealed partials inside each application's
	// encoded partial.
	WindowNs int64 `json:"window_ns,omitempty"`
	// WindowSlideNs selects sliding windows with the given stride
	// (0 = tumbling). Must lie in [0, WindowNs].
	WindowSlideNs int64 `json:"window_slide_ns,omitempty"`
	// WindowGraceNs is the lateness grace period for the per-window
	// completeness accounting.
	WindowGraceNs int64 `json:"window_grace_ns,omitempty"`
}

// maxSessionApps bounds a register frame's application list.
const maxSessionApps = 1024

// maxSessionProcs bounds one registered application's proc count. It
// mirrors the analysis decoder's app-size cap: a session app's size
// becomes a dense 24*N^2-byte topology matrix in the daemon, so an
// unchecked register frame is a one-frame memory bomb.
const maxSessionProcs = 1 << 12

// EncodeSessionMeta marshals a register payload.
func EncodeSessionMeta(m SessionMeta) ([]byte, error) { return json.Marshal(m) }

// ParseSessionMeta unmarshals and validates a register payload.
func ParseSessionMeta(p []byte) (SessionMeta, error) {
	var m SessionMeta
	if err := json.Unmarshal(p, &m); err != nil {
		return SessionMeta{}, fmt.Errorf("wire: bad register payload: %w", err)
	}
	if len(m.Apps) == 0 {
		return SessionMeta{}, fmt.Errorf("wire: register with no applications")
	}
	if len(m.Apps) > maxSessionApps {
		return SessionMeta{}, fmt.Errorf("wire: register with %d applications (limit %d)", len(m.Apps), maxSessionApps)
	}
	for i, a := range m.Apps {
		if a.Name == "" {
			return SessionMeta{}, fmt.Errorf("wire: register app %d has no name", i)
		}
		if a.Procs <= 0 || a.Procs > maxSessionProcs {
			return SessionMeta{}, fmt.Errorf("wire: register app %q has implausible proc count %d", a.Name, a.Procs)
		}
	}
	// Window geometry is validated here, loudly, like the partial
	// decoder's header checks: a daemon must not silently normalize a
	// client's request into different windows than the client expects.
	if m.WindowNs < 0 {
		return SessionMeta{}, fmt.Errorf("wire: register with negative window_ns %d", m.WindowNs)
	}
	if m.WindowSlideNs < 0 || (m.WindowNs > 0 && m.WindowSlideNs > m.WindowNs) {
		return SessionMeta{}, fmt.Errorf("wire: register window_slide_ns %d outside [0, %d]", m.WindowSlideNs, m.WindowNs)
	}
	if m.WindowNs == 0 && (m.WindowSlideNs != 0 || m.WindowGraceNs != 0) {
		return SessionMeta{}, fmt.Errorf("wire: register window slide/grace without window_ns")
	}
	if m.WindowGraceNs < 0 {
		return SessionMeta{}, fmt.Errorf("wire: register with negative window_grace_ns %d", m.WindowGraceNs)
	}
	return m, nil
}

// LossRow mirrors report.StreamLossRow on the wire (the wire package
// stays free of report/analysis imports so transports can be linked
// without the analysis engine).
type LossRow struct {
	App          string `json:"app"`
	Rank         int    `json:"rank"`
	Dropped      int64  `json:"dropped"`
	LostInFlight int64  `json:"lost_in_flight"`
	Shed         int64  `json:"shed"`
}

// AppFinal is one application's end-of-run facts, known only to the
// client (the daemon never sees the simulated clock).
type AppFinal struct {
	// WallNs is the application's Init..Finalize wall time.
	WallNs int64 `json:"wall_ns"`
}

// CloseMeta is the Close payload.
type CloseMeta struct {
	// Apps carries per-application finals in registration order.
	Apps []AppFinal `json:"apps"`
	// Loss carries the client-side per-stream loss accounting.
	Loss []LossRow `json:"loss,omitempty"`
}

// EncodeCloseMeta marshals a close payload.
func EncodeCloseMeta(m CloseMeta) ([]byte, error) { return json.Marshal(m) }

// ParseCloseMeta unmarshals a close payload.
func ParseCloseMeta(p []byte) (CloseMeta, error) {
	var m CloseMeta
	if err := json.Unmarshal(p, &m); err != nil {
		return CloseMeta{}, fmt.Errorf("wire: bad close payload: %w", err)
	}
	return m, nil
}

// FinalReport is the Report payload: the session's rendered report plus
// its accounting.
type FinalReport struct {
	Session uint64 `json:"session"`
	// Events counts events analyzed (shed events excluded).
	Events int64 `json:"events"`
	// Packs counts pack frames absorbed (shed packs included).
	Packs int64 `json:"packs"`
	// Shed counts events shed by the daemon's admission control.
	Shed int64 `json:"shed"`
	// MaxLevel is the highest escalation level the session's admission
	// governor reached (0 = never throttled).
	MaxLevel int `json:"max_level"`
	// Windows counts the populated analysis windows across the session's
	// applications (windowed sessions only).
	Windows int `json:"windows,omitempty"`
	// LateEvents counts events that arrived after their window should
	// have sealed (windowed sessions only; they still merged — the
	// per-window completeness bound accounts them).
	LateEvents int64 `json:"late_events,omitempty"`
	// Rendered is the report's structured-text rendering — byte-identical
	// to an in-process exp.ProfileRun of the same run.
	Rendered string `json:"rendered"`
}

// EncodeFinalReport marshals a report payload.
func EncodeFinalReport(r FinalReport) ([]byte, error) { return json.Marshal(r) }

// ParseFinalReport unmarshals a report payload.
func ParseFinalReport(p []byte) (FinalReport, error) {
	var r FinalReport
	if err := json.Unmarshal(p, &r); err != nil {
		return FinalReport{}, fmt.Errorf("wire: bad report payload: %w", err)
	}
	return r, nil
}
