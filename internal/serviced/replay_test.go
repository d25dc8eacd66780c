package serviced

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/nas"
	"repro/internal/trace"
	"repro/internal/wire"
)

// frameLog writes frames the way an archive holds them.
func frameLog(t testing.TB, frames ...wire.Frame) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, f := range frames {
		if err := wire.WriteFrame(&b, f.Type, f.Payload); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestReplayArchiveRefuses covers Replay's refusals: bytes that are no
// frames, a log out of the session order, a log that ends before its Close
// (at a frame boundary or inside a frame), a pack above the format the
// Hello names, and a pack after the Close. None leaves a live session: a
// session the log opened and did not close is aborted. A whole log replays
// to the report of every pack it holds.
func TestReplayArchiveRefuses(t *testing.T) {
	first, again := packPair()
	pack := func(p []byte) wire.Frame { return wire.Frame{Type: wire.TypePack, Payload: wire.EncodePack(0, p)} }
	helloV1 := wire.Frame{Type: wire.TypeHello, Payload: wire.EncodeHello(wire.Hello{Proto: wire.ProtoVersion, MaxFormat: trace.PackV1})}
	good := frameLog(t, helloFrame, registerFrame, pack(first), pack(again), closeFrame)
	for _, c := range []struct {
		name            string
		log             []byte
		want            string
		aborted, closed int64
	}{
		{"no frames", []byte("not an archive"), "frame", 0, 0},
		{"register before hello", frameLog(t, registerFrame, helloFrame), "expected hello", 0, 0},
		{"hello only", frameLog(t, helloFrame), "closes no session", 0, 0},
		{"no close", frameLog(t, helloFrame, registerFrame, pack(first)), "session 1 ended before close", 1, 0},
		{"cut inside a frame", good[:len(good)-3], "unexpected EOF", 1, 0},
		{"pack above the hello's format", frameLog(t, helloV1, registerFrame, pack(first)), "negotiated for v1", 1, 0},
		{"pack after close", frameLog(t, helloFrame, registerFrame, pack(first), pack(again), closeFrame, pack(again)), "pack after close", 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := New(Options{})
			if _, err := d.Replay(bytes.NewReader(c.log)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
			if st, _ := d.Status(); st.SessionsLive != 0 || st.Aborted != c.aborted || st.SessionsClosed != c.closed {
				t.Fatalf("status: %d live, %d aborted, %d closed; want 0, %d, %d",
					st.SessionsLive, st.Aborted, st.SessionsClosed, c.aborted, c.closed)
			}
		})
	}
	d := New(Options{})
	rep, err := d.Replay(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := trace.PeekHeader(first)
	h2, _ := trace.PeekHeader(again)
	if n := rep.Chapters[0].Profiler.Events(); n != int64(h1.Count+h2.Count) {
		t.Fatalf("replayed %d events, the log holds %d", n, h1.Count+h2.Count)
	}
	if st, _ := d.Status(); st.SessionsLive != 0 || st.SessionsClosed != 1 || st.Packs != 2 {
		t.Fatalf("status after a whole log: %+v", st)
	}
}

// TestRefusalNamesItsPackageOnce pins a session refusal's whole text: the
// daemon's prefix once, then the session, then the reason — as Replay
// returns it, and as the error frame tells the client, which adds its own
// prefix.
func TestRefusalNamesItsPackageOnce(t *testing.T) {
	first, _ := packPair()
	helloV1 := wire.Frame{Type: wire.TypeHello, Payload: wire.EncodeHello(wire.Hello{Proto: wire.ProtoVersion, MaxFormat: trace.PackV1})}
	frames := []wire.Frame{helloV1, registerFrame, {Type: wire.TypePack, Payload: wire.EncodePack(0, first)}}
	const reason = "session 1: pack format v3 on a session negotiated for v1"
	if _, err := New(Options{}).Replay(bytes.NewReader(frameLog(t, frames...))); err == nil || err.Error() != "serviced: "+reason {
		t.Fatalf("Replay: %v, want %q", err, "serviced: "+reason)
	}
	var out bytes.Buffer
	New(Options{}).serve(bytes.NewReader(frameLog(t, frames...)), &out)
	r := wire.NewReader(&out)
	for {
		f, err := r.Next()
		if err != nil {
			t.Fatalf("no error frame among the replies: %v", err)
		}
		if f.Type == wire.TypeError {
			if string(f.Payload) != reason {
				t.Fatalf("error frame %q, want %q", f.Payload, reason)
			}
			return
		}
	}
}

// FuzzReplayArchive feeds bytes to Daemon.Replay, which profiler -trace
// runs on a file: a replay may not panic or hang, and leaves no live
// session. Seeded from small exported runs, v1 and v3, with every module
// and windows on.
//
// A log whose register frames name more than 256 ranks is stepped over, as
// FuzzReadArchive does: the known open bound of the register frame, dense
// topology matrices of 24·N² bytes per application.
func FuzzReplayArchive(f *testing.F) {
	opts := exp.ProfileOptions{Workers: 1, WaitState: true, Callsites: true, Sizes: true, PackBytes: 4096,
		TemporalWindowNs: time.Millisecond.Nanoseconds(), WindowNs: (5 * time.Millisecond).Nanoseconds()}
	for _, v := range []int{trace.PackV1, trace.PackV3} {
		w, err := nas.ByName("CG", nas.ClassA, 4, 1)
		if err != nil {
			f.Fatal(err)
		}
		var archive bytes.Buffer
		opts.PackVersion, opts.Export = v, &archive
		if _, err := exp.ProfileRun(exp.Tera100(), []*nas.Workload{w}, opts); err != nil {
			f.Fatal(err)
		}
		if _, err := New(Options{}).Replay(bytes.NewReader(archive.Bytes())); err != nil {
			f.Fatalf("v%d seed: %v", v, err)
		}
		f.Add(archive.Bytes())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if registeredRanks(b) > 256 {
			return
		}
		d := New(Options{})
		_, err := d.Replay(bytes.NewReader(b))
		if st, _ := d.Status(); st.SessionsLive != 0 || (err != nil && st.SessionsClosed+st.Aborted != st.SessionsTotal) {
			t.Fatalf("replay (err %v) left %d live sessions, %d of %d retired", err, st.SessionsLive, st.SessionsClosed+st.Aborted, st.SessionsTotal)
		}
	})
}

// registeredRanks sums the ranks of the applications the log's register
// frames name.
func registeredRanks(b []byte) int {
	n := 0
	fr := wire.NewReader(bytes.NewReader(b))
	for {
		f, err := fr.Next()
		if err != nil {
			return n
		}
		if m, err := wire.ParseSessionMeta(f.Payload); f.Type == wire.TypeRegister && err == nil {
			for _, a := range m.Apps {
				n += a.Procs
			}
		}
	}
}
