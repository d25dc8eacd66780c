package client_test

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/client"
	"repro/internal/exp"
	"repro/internal/nas"
	"repro/internal/serviced"
	"repro/internal/trace"
	"repro/internal/wire"
)

func captureCG(t *testing.T, iters, format int) *exp.Capture {
	t.Helper()
	w, err := nas.ByName("CG", 'A', 16, iters)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := exp.CaptureRun(exp.Tera100(), []*nas.Workload{w}, exp.ProfileOptions{
		WaitState:   true,
		Sizes:       true,
		PackVersion: format,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func pipeTo(t *testing.T, d *serviced.Daemon, maxFormat int) *client.Client {
	t.Helper()
	srv, cli := net.Pipe()
	go d.ServeConn(srv)
	c, err := client.New(cli, maxFormat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Shutdown() })
	return c
}

func TestClientGuards(t *testing.T) {
	if _, err := client.New(nil, trace.PackV3+1); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := client.Dial("127.0.0.1:1", 0); err == nil {
		t.Fatal("dial to a dead port succeeded")
	}

	cp := captureCG(t, 1, trace.PackV1)
	meta := cp.SessionMeta()
	c := pipeTo(t, serviced.New(serviced.Options{}), 0)
	if err := c.SendPack(0, cp.Packs[0].Data); err == nil {
		t.Fatal("send before register succeeded")
	}
	if _, err := c.Close(wire.CloseMeta{}); err == nil {
		t.Fatal("close before register succeeded")
	}
	if id, err := c.Register(meta); err != nil || id == 0 {
		t.Fatalf("register: session %d, err %v", id, err)
	}
	if _, err := c.Register(meta); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate register: err = %v", err)
	}
	if _, err := c.Register(wire.SessionMeta{}); err == nil {
		t.Fatal("re-register with empty meta succeeded")
	}
	if _, err := cp.Replay(c, 0); err == nil {
		t.Fatal("replay on a registered session succeeded")
	}
}

// TestHandshakeFailures scripts hostile daemon responses to the hello
// frame: every one must surface as a New error, never a hang or panic.
func TestHandshakeFailures(t *testing.T) {
	cases := []struct {
		name    string
		respond func(w io.Writer)
		wantSub string
	}{
		{"connection closed", func(io.Writer) {}, "reading frame"},
		{"error frame", func(w io.Writer) { wire.WriteFrame(w, wire.TypeError, []byte("go away")) }, "go away"},
		{"unexpected type", func(w io.Writer) { wire.WriteFrame(w, wire.TypeState, nil) }, "unexpected frame"},
		{"bad ack payload", func(w io.Writer) { wire.WriteFrame(w, wire.TypeHelloAck, []byte{1}) }, ""},
		{"wrong protocol", func(w io.Writer) {
			wire.WriteFrame(w, wire.TypeHelloAck, wire.EncodeHelloAck(wire.HelloAck{Proto: 99, Format: 1}))
		}, "protocol"},
		{"bad credit frame", func(w io.Writer) { wire.WriteFrame(w, wire.TypeCredit, []byte{1}) }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, cli := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer srv.Close()
				if _, err := wire.NewReader(srv).Next(); err != nil {
					return
				}
				tc.respond(srv)
			}()
			_, err := client.New(cli, 0)
			if err == nil {
				t.Fatal("handshake succeeded against a hostile daemon")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantSub)
			}
			<-done
		})
	}
}

// scripted completes the hello handshake, then hands the connection to
// a scripted daemon impersonation so tests can answer requests with
// malformed or hostile frames.
func scripted(t *testing.T, serve func(fr *wire.Reader, w io.Writer)) *client.Client {
	t.Helper()
	srv, cli := net.Pipe()
	go func() {
		defer srv.Close()
		fr := wire.NewReader(srv)
		if _, err := fr.Next(); err != nil {
			return
		}
		wire.WriteFrame(srv, wire.TypeHelloAck, wire.EncodeHelloAck(wire.HelloAck{Proto: wire.ProtoVersion, Format: trace.PackV1}))
		serve(fr, srv)
	}()
	c, err := client.New(cli, trace.PackV1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Shutdown() })
	return c
}

// validAck registers the client against a scripted daemon that answers
// with the given ack before running the rest of the script.
func ackThen(ack wire.RegisterAck, rest func(fr *wire.Reader, w io.Writer)) func(fr *wire.Reader, w io.Writer) {
	return func(fr *wire.Reader, w io.Writer) {
		if _, err := fr.Next(); err != nil {
			return
		}
		wire.WriteFrame(w, wire.TypeRegisterAck, wire.EncodeRegisterAck(ack))
		rest(fr, w)
	}
}

// TestRequestErrorPaths scripts malformed daemon answers to each
// request type: the client must return an error, not panic or hang.
func TestRequestErrorPaths(t *testing.T) {
	next := func(fr *wire.Reader) bool {
		_, err := fr.Next()
		return err == nil
	}
	t.Run("bad register ack", func(t *testing.T) {
		c := scripted(t, func(fr *wire.Reader, w io.Writer) {
			if next(fr) {
				wire.WriteFrame(w, wire.TypeRegisterAck, []byte{1})
			}
		})
		if _, err := c.Register(wire.SessionMeta{Apps: []wire.AppMeta{{Name: "x", Procs: 1}}}); err == nil {
			t.Fatal("truncated register ack accepted")
		}
	})
	t.Run("garbage snapshot state", func(t *testing.T) {
		c := scripted(t, ackThen(wire.RegisterAck{Session: 7, Window: 4}, func(fr *wire.Reader, w io.Writer) {
			if next(fr) {
				wire.WriteFrame(w, wire.TypeState, []byte{0xFF})
			}
		}))
		if _, err := c.Register(wire.SessionMeta{Apps: []wire.AppMeta{{Name: "x", Procs: 1}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Snapshot(); err == nil {
			t.Fatal("garbage state payload accepted")
		}
	})
	t.Run("diff refused", func(t *testing.T) {
		c := scripted(t, ackThen(wire.RegisterAck{Session: 7, Window: 4}, func(fr *wire.Reader, w io.Writer) {
			if next(fr) {
				wire.WriteFrame(w, wire.TypeError, []byte("no session"))
			}
		}))
		if _, err := c.Register(wire.SessionMeta{Apps: []wire.AppMeta{{Name: "x", Procs: 1}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Diff(4); err == nil || !strings.Contains(err.Error(), "no session") {
			t.Fatal("daemon error frame not surfaced by diff")
		}
	})
	t.Run("stats refused", func(t *testing.T) {
		c := scripted(t, func(fr *wire.Reader, w io.Writer) {
			if next(fr) {
				wire.WriteFrame(w, wire.TypeError, []byte("nope"))
			}
		})
		if _, err := c.Stats(); err == nil || !strings.Contains(err.Error(), "nope") {
			t.Fatal("daemon error frame not surfaced by stats")
		}
	})
	t.Run("garbage final report", func(t *testing.T) {
		c := scripted(t, ackThen(wire.RegisterAck{Session: 7, Window: 4}, func(fr *wire.Reader, w io.Writer) {
			if next(fr) {
				wire.WriteFrame(w, wire.TypeReport, []byte{0xFF})
			}
		}))
		if _, err := c.Register(wire.SessionMeta{Apps: []wire.AppMeta{{Name: "x", Procs: 1}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Close(wire.CloseMeta{Apps: []wire.AppFinal{{WallNs: 1}}}); err == nil {
			t.Fatal("garbage final report accepted")
		}
	})
	t.Run("credit wait aborted by error", func(t *testing.T) {
		// The client exhausts its one credit and then must drain a grant
		// before its next request — so the daemon's answer to the pack is
		// an error frame, which waitCredit must surface, not swallow.
		c := scripted(t, ackThen(wire.RegisterAck{Session: 7, Window: 1}, func(fr *wire.Reader, w io.Writer) {
			if next(fr) { // the lone funded pack
				wire.WriteFrame(w, wire.TypeError, []byte("shutting down"))
			}
		}))
		if _, err := c.Register(wire.SessionMeta{Apps: []wire.AppMeta{{Name: "x", Procs: 1}}}); err != nil {
			t.Fatal(err)
		}
		if err := c.SendPack(0, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Snapshot(); err == nil || !strings.Contains(err.Error(), "shutting down") {
			t.Fatalf("credit wait: err = %v", err)
		}
	})
	t.Run("replay diff refused", func(t *testing.T) {
		cp := captureCG(t, 1, trace.PackV1)
		c := scripted(t, ackThen(wire.RegisterAck{Session: 7, Window: 64}, func(fr *wire.Reader, w io.Writer) {
			if next(fr) { // first pack
				if next(fr) { // first diff poll
					wire.WriteFrame(w, wire.TypeError, []byte("diff broken"))
				}
			}
		}))
		if _, err := cp.Replay(c, 1); err == nil || !strings.Contains(err.Error(), "diff broken") {
			t.Fatal("daemon diff error not surfaced by replay")
		}
	})
}

// TestDialTCP covers the TCP connect path end to end against a real
// daemon listener.
func TestDialTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go serviced.New(serviced.Options{}).Serve(l)
	c, err := client.Dial(l.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	raw, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "sessions") {
		t.Fatalf("stats = %s", raw)
	}
}

// TestAfterShutdown checks that every request path fails cleanly once
// the underlying connection is gone.
func TestAfterShutdown(t *testing.T) {
	cp := captureCG(t, 1, trace.PackV1)
	c := pipeTo(t, serviced.New(serviced.Options{}), trace.PackV1)
	if _, err := c.Register(cp.SessionMeta()); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	if err := c.SendPack(0, cp.Packs[0].Data); err == nil {
		t.Fatal("send on a closed connection succeeded")
	}
	if _, err := c.Snapshot(); err == nil {
		t.Fatal("snapshot on a closed connection succeeded")
	}
	if _, err := c.Diff(0); err == nil {
		t.Fatal("diff on a closed connection succeeded")
	}
	if _, err := c.Close(wire.CloseMeta{}); err == nil {
		t.Fatal("close on a closed connection succeeded")
	}
	if _, err := c.Stats(); err == nil {
		t.Fatal("stats on a closed connection succeeded")
	}
}

func TestReplayFormatGuard(t *testing.T) {
	cp := captureCG(t, 1, trace.PackV3)
	// The daemon acks v1: the negotiated session format cannot carry the
	// captured v3 packs, and Replay must say so before registering.
	c := scripted(t, func(*wire.Reader, io.Writer) {})
	if _, err := cp.Replay(c, 0); err == nil || !strings.Contains(err.Error(), "negotiated") {
		t.Fatalf("replay: err = %v", err)
	}
	// A default client (maxFormat 0) and a default daemon negotiate v3, so
	// the same capture replays: the guard above would refuse it otherwise.
	def := pipeTo(t, serviced.New(serviced.Options{}), 0)
	if rep, err := cp.Replay(def, 0); err != nil || rep.Packs != int64(len(cp.Packs)) {
		t.Fatalf("default negotiation: replay = %+v, err = %v", rep, err)
	}
}

func TestReplayWithDiffPollingAndStats(t *testing.T) {
	cp := captureCG(t, 2, trace.PackV2)
	d := serviced.New(serviced.Options{})
	c := pipeTo(t, d, cp.PackVersion)
	rep, err := cp.Replay(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events == 0 || rep.Packs != int64(len(cp.Packs)) {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.Rendered, "online profiling report") {
		t.Fatal("report not rendered")
	}
	raw, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "\"sessions_closed\":1") {
		t.Fatalf("stats = %s", raw)
	}
}

func TestDiffReplayerValidation(t *testing.T) {
	cp := captureCG(t, 1, trace.PackV1)
	meta := cp.SessionMeta()

	r := client.NewDiffReplayer(meta)
	if r.Cursor() != 0 {
		t.Fatalf("fresh cursor = %d", r.Cursor())
	}
	// A delta whose From does not match the held cursor is a protocol
	// violation.
	if err := r.Apply(wire.State{From: 5, To: 6}); err == nil || !strings.Contains(err.Error(), "cursor") {
		t.Fatalf("gap delta: err = %v", err)
	}
	// An empty delta advances the cursor.
	if err := r.Apply(wire.State{From: 0, To: 3}); err != nil {
		t.Fatal(err)
	}
	if r.Cursor() != 3 {
		t.Fatalf("cursor = %d, want 3", r.Cursor())
	}
	// A delta naming more apps than the session has is rejected.
	if err := r.Apply(wire.State{From: 3, To: 4, Apps: [][]byte{{1}, {2}}}); err == nil {
		t.Fatal("overlong delta accepted")
	}
	// Undecodable partials are rejected, not merged.
	if err := r.Apply(wire.State{From: 3, To: 4, Apps: [][]byte{{0xFF, 0xEE}}}); err == nil {
		t.Fatal("corrupt delta accepted")
	}
	if err := r.Apply(wire.State{Full: true, To: 9, Apps: [][]byte{{0xFF}}}); err == nil {
		t.Fatal("corrupt full state accepted")
	}

	// Verify rejects epoch and shape mismatches.
	if err := r.Verify(wire.State{To: 99}); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("epoch mismatch: err = %v", err)
	}
	if err := r.Verify(wire.State{To: 3}); err == nil || !strings.Contains(err.Error(), "apps") {
		t.Fatalf("shape mismatch: err = %v", err)
	}
	if err := r.Verify(wire.State{To: 3, Apps: [][]byte{{1, 2, 3}}}); err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("byte mismatch: err = %v", err)
	}

	// A well-formed full state replaces the replayed state wholesale and
	// resets the cursor, regardless of the cursor it held before.
	blob := analysis.NewPartial(meta.Apps[0].AppID, analysis.PartialOptions{
		AppSize:   meta.Apps[0].Procs,
		WaitState: meta.WaitState,
		Sizes:     meta.Sizes,
	}).AppendCanonical(nil)
	if err := r.Apply(wire.State{Full: true, To: 9, Apps: [][]byte{blob}}); err != nil {
		t.Fatal(err)
	}
	if r.Cursor() != 9 {
		t.Fatalf("cursor = %d after full resync, want 9", r.Cursor())
	}
}

func TestCaptureMetaHelpers(t *testing.T) {
	w, err := nas.ByName("CG", 'A', 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := exp.CaptureRun(exp.Tera100(), []*nas.Workload{w}, exp.ProfileOptions{
		Callsites:   true,
		PackVersion: trace.PackV1,
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := cp.SessionMeta()
	if meta.Title != "online profiling report (Tera100)" {
		t.Fatalf("title = %q", meta.Title)
	}
	if len(meta.Apps) != 1 || meta.Apps[0].Name != "CG.A" || meta.Apps[0].Procs != 16 {
		t.Fatalf("apps = %+v", meta.Apps)
	}
	if !meta.Callsites || len(meta.Apps[0].Labels) == 0 {
		t.Fatal("callsite labels missing from capture meta")
	}
	cm := cp.CloseMeta()
	if len(cm.Apps) != 1 || cm.Apps[0].WallNs <= 0 {
		t.Fatalf("close meta = %+v", cm)
	}
	if len(cm.Loss) == 0 {
		t.Fatal("close meta lacks loss rows")
	}
}

// TestRefusedLocally holds the client to refusing, at once, the session
// requests the daemon would refuse — before register and after close — so
// that none reaches the daemon to end the connection under a later,
// unrelated call: Stats still answers after each of them.
func TestRefusedLocally(t *testing.T) {
	cp := captureCG(t, 1, trace.PackV1)
	c := pipeTo(t, serviced.New(serviced.Options{}), trace.PackV1)
	if _, err := c.Snapshot(); err == nil || !strings.Contains(err.Error(), "client: snapshot before register") {
		t.Fatalf("snapshot before register: err = %v", err)
	}
	if _, err := c.Diff(0); err == nil || !strings.Contains(err.Error(), "client: diff before register") {
		t.Fatalf("diff before register: err = %v", err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats after refusals before register: %v", err)
	}
	if _, err := c.Register(cp.SessionMeta()); err != nil {
		t.Fatal(err)
	}
	if err := c.SendPack(uint32(cp.Packs[0].Src), cp.Packs[0].Data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(cp.CloseMeta()); err != nil {
		t.Fatal(err)
	}
	if err := c.SendPack(uint32(cp.Packs[0].Src), cp.Packs[0].Data); err == nil || !strings.Contains(err.Error(), "after close") {
		t.Fatalf("send after close: err = %v", err)
	}
	if _, err := c.Diff(0); err == nil || !strings.Contains(err.Error(), "after close") {
		t.Fatalf("diff after close: err = %v", err)
	}
	raw, err := c.Stats()
	if err != nil {
		t.Fatalf("stats after refusals after close: %v", err)
	}
	if !strings.Contains(string(raw), `"sessions_closed":1,"sessions_aborted":0`) {
		t.Fatalf("stats = %s", raw)
	}
}

// TestStatsAfterSpentWindow asks for Stats with the credit window just
// spent, on the unbuffered net.Pipe: the grant the daemon is writing must
// be read first, or the two ends block writing to each other.
func TestStatsAfterSpentWindow(t *testing.T) {
	cp := captureCG(t, 1, trace.PackV1)
	if len(cp.Packs) < serviced.DefaultWindow {
		t.Fatalf("capture has %d packs, fewer than a window of %d", len(cp.Packs), serviced.DefaultWindow)
	}
	c := pipeTo(t, serviced.New(serviced.Options{}), trace.PackV1)
	if _, err := c.Register(cp.SessionMeta()); err != nil {
		t.Fatal(err)
	}
	for _, p := range cp.Packs[:serviced.DefaultWindow] {
		if err := c.SendPack(uint32(p.Src), p.Data); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Stats()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stats with a spent credit window deadlocked")
	}
}

// TestStateStorageOwnership: an answer lives in storage the client keeps,
// valid until the next Snapshot or Diff. SendPack, Stats and Close leave a
// Snapshot's bytes as they were; the next Diff is parsed into the same
// storage; Shutdown drops the storage and leaves the last answer to the
// caller.
func TestStateStorageOwnership(t *testing.T) {
	cp := captureCG(t, 1, trace.PackV1)
	c := pipeTo(t, serviced.New(serviced.Options{}), trace.PackV1)
	if _, err := c.Register(cp.SessionMeta()); err != nil {
		t.Fatal(err)
	}
	send := func(packs []exp.CapturedPack) {
		t.Helper()
		for _, p := range packs {
			if err := c.SendPack(uint32(p.Src), p.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	intact := func(st wire.State, want []byte, after string) {
		t.Helper()
		if len(st.Apps) != 1 || string(st.Apps[0]) != string(want) {
			t.Fatalf("a Snapshot's bytes changed under %s", after)
		}
	}
	half := len(cp.Packs) / 2
	send(cp.Packs[:half])
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), snap.Apps[0]...)
	send(cp.Packs[half : half+1])
	intact(snap, want, "SendPack")
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	intact(snap, want, "Stats")

	st, err := c.Diff(snap.To)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Apps) != 1 || len(st.Apps[0]) > len(want) || &st.Apps[0][:1][0] != &snap.Apps[0][:1][0] {
		t.Fatalf("the Diff after a Snapshot is not parsed into the Snapshot's storage")
	}
	send(cp.Packs[half+1:])

	last, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want[:0], last.Apps[0]...)
	if _, err := c.Close(cp.CloseMeta()); err != nil {
		t.Fatal(err)
	}
	intact(last, want, "Close")
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	intact(last, want, "Stats after Close")
	c.Shutdown()
	intact(last, want, "Shutdown")
}

// TestApplyIsAllOrNothing: an answer Apply refuses changes nothing — not
// the first app of a two-app delta whose second app is truncated, not a
// Full answer with the same flaw, not one naming more apps than the
// session has — so the replayer still verifies against the Snapshot
// before it, and then applies the intact answer.
func TestApplyIsAllOrNothing(t *testing.T) {
	var ws []*nas.Workload
	for _, name := range []string{"CG", "LU"} {
		w, err := nas.ByName(name, 'A', 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	cp, err := exp.CaptureRun(exp.Tera100(), ws, exp.ProfileOptions{WaitState: true, Sizes: true, PackVersion: trace.PackV1})
	if err != nil {
		t.Fatal(err)
	}
	meta := cp.SessionMeta()
	c := pipeTo(t, serviced.New(serviced.Options{}), trace.PackV1)
	if _, err := c.Register(meta); err != nil {
		t.Fatal(err)
	}
	send := func(packs []exp.CapturedPack) {
		t.Helper()
		for _, p := range packs {
			if err := c.SendPack(uint32(p.Src), p.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Each half of the run carries events of both apps: the first half of
	// each app's packs, then the rest.
	var first, second []exp.CapturedPack
	for _, am := range meta.Apps {
		var own []exp.CapturedPack
		for _, p := range cp.Packs {
			if h, err := trace.PeekHeader(p.Data); err == nil && h.AppID == am.AppID {
				own = append(own, p)
			}
		}
		first, second = append(first, own[:len(own)/2]...), append(second, own[len(own)/2:]...)
	}
	replay := client.NewDiffReplayer(meta)
	send(first)
	st, err := c.Diff(0)
	if err == nil {
		err = replay.Apply(st)
	}
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.Verify(snap); err != nil {
		t.Fatal(err)
	}
	// The next answer reuses the Snapshot's storage: keep a copy.
	snap.Apps = [][]byte{append([]byte(nil), snap.Apps[0]...), append([]byte(nil), snap.Apps[1]...)}

	send(second)
	st, err = c.Diff(replay.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Apps) != 2 || len(st.Apps[0]) == 0 || len(st.Apps[1]) == 0 {
		t.Fatalf("the delta carries %d apps, want both", len(st.Apps))
	}
	cut := st
	cut.Apps = [][]byte{st.Apps[0], st.Apps[1][:len(st.Apps[1])/2]}
	full := cut
	full.Full = true
	three := st
	three.Apps = [][]byte{st.Apps[0], st.Apps[1], st.Apps[1]}
	for _, bad := range []struct {
		name string
		st   wire.State
	}{{"truncated second app", cut}, {"full, truncated second app", full}, {"three apps", three}} {
		if err := replay.Apply(bad.st); err == nil {
			t.Fatalf("%s: applied", bad.name)
		}
		if err := replay.Verify(snap); err != nil {
			t.Fatalf("%s: the refused answer changed the replay: %v", bad.name, err)
		}
	}
	if err := replay.Apply(st); err != nil {
		t.Fatal(err)
	}
	if snap, err = c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := replay.Verify(snap); err != nil {
		t.Fatal(err)
	}
}
