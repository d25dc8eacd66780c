package serviced

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Frames of a legal session over packMeta, for driving conn.handle.
var (
	helloFrame    = wire.Frame{Type: wire.TypeHello, Payload: wire.EncodeHello(wire.Hello{Proto: wire.ProtoVersion, MaxFormat: trace.PackV3})}
	registerFrame = wire.Frame{Type: wire.TypeRegister, Payload: mustJSON(wire.EncodeSessionMeta(packMeta))}
	closeFrame    = wire.Frame{Type: wire.TypeClose, Payload: mustJSON(wire.EncodeCloseMeta(wire.CloseMeta{Apps: []wire.AppFinal{{}}}))}
)

func mustJSON(p []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return p
}

// step feeds one frame to c.handle and returns the payload of its reply,
// which must be of type want (0: no reply).
func step(t *testing.T, c *conn, f wire.Frame, want byte) []byte {
	t.Helper()
	typ, payload, err := c.handle(f)
	if err != nil || typ != want {
		t.Fatalf("frame %#x: reply %#x, err %v; want reply %#x", f.Type, typ, err, want)
	}
	return payload
}

// TestHandleSession drives a whole session through conn.handle, frame by
// frame, with no goroutine and no connection: hello, register, two credit
// windows of packs (a pack is answered by nothing until the window's
// last, which is answered by exactly one Credit), a Diff from cursor 0
// that a client-side replay must take to the Snapshot after it, and
// Close, whose report counts every pack and event.
func TestHandleSession(t *testing.T) {
	d := New(Options{})
	c := &conn{d: d}
	if ack, err := wire.ParseHelloAck(step(t, c, helloFrame, wire.TypeHelloAck)); err != nil || ack.Format != trace.PackV3 {
		t.Fatalf("hello ack %+v, err %v; want format v3", ack, err)
	}
	ra, err := wire.ParseRegisterAck(step(t, c, registerFrame, wire.TypeRegisterAck))
	if err != nil || ra.Window != DefaultWindow {
		t.Fatalf("register ack %+v, err %v; want window %d", ra, err, DefaultWindow)
	}

	first, again := packPair()
	events := int64(0)
	for i := 0; i < 2*DefaultWindow; i++ {
		pack := again
		if i == 0 {
			pack = first
		}
		h, _ := trace.PeekHeader(pack)
		events += int64(h.Count)
		if (i+1)%DefaultWindow != 0 {
			step(t, c, wire.Frame{Type: wire.TypePack, Payload: wire.EncodePack(0, pack)}, 0)
			continue
		}
		cr, err := wire.ParseCredit(step(t, c, wire.Frame{Type: wire.TypePack, Payload: wire.EncodePack(0, pack)}, wire.TypeCredit))
		if err != nil || cr.Credits != DefaultWindow || cr.Window != DefaultWindow {
			t.Fatalf("pack %d: credit %+v, err %v; want a window of %d", i, cr, err, DefaultWindow)
		}
	}

	replay := client.NewDiffReplayer(packMeta)
	diff, err := wire.ParseState(step(t, c, wire.Frame{Type: wire.TypeDiff, Payload: wire.EncodeDiffReq(wire.DiffReq{})}, wire.TypeState))
	if err != nil || diff.Full || diff.From != 0 || diff.To == 0 {
		t.Fatalf("diff from 0: %+v, err %v", diff, err)
	}
	if err := replay.Apply(diff); err != nil {
		t.Fatal(err)
	}
	snap, err := wire.ParseState(step(t, c, wire.Frame{Type: wire.TypeSnapshot}, wire.TypeState))
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.Verify(snap); err != nil {
		t.Fatal(err)
	}

	rep, err := wire.ParseFinalReport(step(t, c, closeFrame, wire.TypeReport))
	if err != nil || rep.Packs != 2*DefaultWindow || rep.Events != events || rep.Shed != 0 {
		t.Fatalf("final report %+v, err %v; want %d packs, %d events", rep, err, 2*DefaultWindow, events)
	}
	step(t, c, wire.Frame{Type: wire.TypeStats}, wire.TypeStatsAck)
	if st, _ := d.Status(); st.SessionsClosed != 1 || st.SessionsLive != 0 || st.Aborted != 0 || st.Packs != 2*DefaultWindow {
		t.Fatalf("status = %+v", st)
	}
}

// TestProtocolErrors sweeps the protocol-violation branches through
// conn.handle, with no goroutine: handshake failures, malformed control
// payloads, session requests out of order, and unknown frames. Every frame
// of a case but its last must be accepted, and the last refused with the
// given text. A refused register counts no session.
func TestProtocolErrors(t *testing.T) {
	register := func(m wire.SessionMeta) wire.Frame {
		return wire.Frame{Type: wire.TypeRegister, Payload: mustJSON(wire.EncodeSessionMeta(m))}
	}
	hello := func(proto, maxFormat byte) wire.Frame {
		return wire.Frame{Type: wire.TypeHello, Payload: wire.EncodeHello(wire.Hello{Proto: proto, MaxFormat: maxFormat})}
	}
	dup := packMeta
	dup.Apps = []wire.AppMeta{packMeta.Apps[0], packMeta.Apps[0]}
	other := packMeta
	other.Apps = []wire.AppMeta{{Name: "other", Procs: 4, AppID: packMeta.Apps[0].AppID + 77}}
	first, _ := packPair()
	pack := wire.Frame{Type: wire.TypePack, Payload: wire.EncodePack(0, first)}
	diff := wire.Frame{Type: wire.TypeDiff, Payload: wire.EncodeDiffReq(wire.DiffReq{})}

	cases := []struct {
		name   string
		frames []wire.Frame
		want   string
	}{
		{"first frame not hello", []wire.Frame{{Type: wire.TypeStats}}, "expected hello"},
		{"bad hello payload", []wire.Frame{{Type: wire.TypeHello, Payload: []byte{1}}}, "hello payload"},
		{"bad protocol version", []wire.Frame{hello(99, 1)}, "protocol version"},
		{"no usable format", []wire.Frame{hello(wire.ProtoVersion, 0)}, "no usable pack format"},
		{"second hello", []wire.Frame{helloFrame, helloFrame}, "unexpected frame type"},
		{"bad register payload", []wire.Frame{helloFrame, register(wire.SessionMeta{Title: "no apps"})}, "no applications"},
		{"duplicate app id in register", []wire.Frame{helloFrame, register(dup)}, "duplicate app id"},
		{"bad diff payload", []wire.Frame{helloFrame, registerFrame, {Type: wire.TypeDiff, Payload: []byte{1, 2}}}, "diff payload"},
		{"bad close payload", []wire.Frame{helloFrame, registerFrame, {Type: wire.TypeClose, Payload: []byte("{")}}, "close payload"},
		{"close app count mismatch", []wire.Frame{helloFrame, registerFrame, {Type: wire.TypeClose, Payload: []byte("{}")}}, "names 0 apps"},
		{"unknown frame type", []wire.Frame{helloFrame, {Type: 0x7F}}, "unexpected frame type"},
		{"bad pack header", []wire.Frame{helloFrame, registerFrame, {Type: wire.TypePack, Payload: wire.EncodePack(0, []byte{1, 2})}}, "pack header"},
		{"pack for unknown app id", []wire.Frame{helloFrame, register(other), pack}, "unregistered app"},
		{"snapshot before register", []wire.Frame{helloFrame, {Type: wire.TypeSnapshot}}, "snapshot before register"},
		{"diff after close", []wire.Frame{helloFrame, registerFrame, closeFrame, diff}, "session 1: diff after close"},
		{"pack after close", []wire.Frame{helloFrame, registerFrame, closeFrame, pack}, "session 1: pack after close"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := New(Options{})
			c := &conn{d: d}
			last := len(tc.frames) - 1
			for _, f := range tc.frames[:last] {
				if _, _, err := c.handle(f); err != nil {
					t.Fatalf("frame %#x refused: %v", f.Type, err)
				}
			}
			if _, _, err := c.handle(tc.frames[last]); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if st, _ := d.Status(); c.sess == nil && (st.SessionsTotal != 0 || st.Aborted != 0) {
				t.Fatalf("a refused register counted sessions_total %d, sessions_aborted %d", st.SessionsTotal, st.Aborted)
			}
		})
	}
}

// TestRegisterRefusesWideWindowOverlap: a Register frame whose windows
// overlap 2^40-fold (width 2^40 ns, slide 1 ns) would fold every event into
// 2^40 windows. conn.handle refuses it, counting no session, and so does a
// replay of an archive holding it, before any pack of the archive folds. At
// the cap, 64 windows, the daemon opens the session.
func TestRegisterRefusesWideWindowOverlap(t *testing.T) {
	wide := packMeta
	wide.WindowNs, wide.WindowSlideNs = 1<<40, 1
	reg := wire.Frame{Type: wire.TypeRegister, Payload: mustJSON(wire.EncodeSessionMeta(wide))}
	const want = "overlaps more than 64 windows"
	d := New(Options{})
	c := &conn{d: d}
	step(t, c, helloFrame, wire.TypeHelloAck)
	if _, _, err := c.handle(reg); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("register of window 2^40 / slide 1: err %v, want %q", err, want)
	}
	if st, _ := d.Status(); c.sess != nil || st.SessionsTotal != 0 {
		t.Fatalf("a refused register opened a session (%d counted)", st.SessionsTotal)
	}
	atCap := packMeta
	atCap.WindowNs, atCap.WindowSlideNs = 64, 1
	c = &conn{d: New(Options{})}
	step(t, c, helloFrame, wire.TypeHelloAck)
	step(t, c, wire.Frame{Type: wire.TypeRegister, Payload: mustJSON(wire.EncodeSessionMeta(atCap))}, wire.TypeRegisterAck)

	first, _ := packPair()
	archive := frameLog(t, helloFrame, reg, wire.Frame{Type: wire.TypePack, Payload: wire.EncodePack(0, first)}, closeFrame)
	d = New(Options{})
	if _, err := d.Replay(bytes.NewReader(archive)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("archive of window 2^40 / slide 1: err %v, want %q", err, want)
	}
	if st, _ := d.Status(); st.SessionsTotal != 0 {
		t.Fatalf("a refused archive opened a session (%d counted)", st.SessionsTotal)
	}
}
