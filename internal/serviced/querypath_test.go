package serviced

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/exp"
	"repro/internal/trace"
	"repro/internal/wire"
)

// queryConn opens a session over meta on a bare conn, driven frame by
// frame through conn.handle; its hello offers pack formats up to format.
func queryConn(t *testing.T, format byte, meta wire.SessionMeta) *conn {
	t.Helper()
	c := &conn{d: New(Options{})}
	step(t, c, wire.Frame{Type: wire.TypeHello, Payload: wire.EncodeHello(wire.Hello{Proto: wire.ProtoVersion, MaxFormat: format})}, wire.TypeHelloAck)
	step(t, c, wire.Frame{Type: wire.TypeRegister, Payload: mustJSON(wire.EncodeSessionMeta(meta))}, wire.TypeRegisterAck)
	return c
}

// feed hands packs to c as pack frames; each is answered by nothing or, at
// a credit window's end, by a Credit.
func feed(t *testing.T, c *conn, packs []exp.CapturedPack) {
	t.Helper()
	for _, p := range packs {
		typ, _, err := c.handle(wire.Frame{Type: wire.TypePack, Payload: wire.EncodePack(uint32(p.Src), p.Data)})
		if err != nil || (typ != 0 && typ != wire.TypeCredit) {
			t.Fatalf("pack: reply %#x, err %v", typ, err)
		}
	}
}

// TestStatePayloadsGolden pins the State payloads of a scripted session
// through conn.handle — a Snapshot, a one-epoch Diff, a three-epoch Diff
// and a Diff whose cursor aged out of the epoch log (answered Full) — to
// SHA-256 hashes taken before queries were answered from reused storage.
// Reuse may change where the bytes live, never what they are. The capture
// has two applications with every module on (wait-state, call sites,
// sizes, temporal, windows), cut into v3 packs of a few events so that
// the session seals many epochs.
func TestStatePayloadsGolden(t *testing.T) {
	opts := testOpts
	opts.PackVersion = trace.PackV3
	opts.PackBytes = 256
	opts.TemporalWindowNs = (10 * time.Millisecond).Nanoseconds()
	opts.WindowNs = (5 * time.Millisecond).Nanoseconds()
	cp := capture(t, opts, [4]int{0, 'A', 16, 2}, [4]int{1, 'A', 16, 1})
	if len(cp.Packs) < 60+2*(DefaultEpochCap+2) {
		t.Fatalf("capture has %d packs, too few for the script", len(cp.Packs))
	}
	c := queryConn(t, trace.PackV3, cp.SessionMeta())
	packs := cp.Packs
	next := func(n int) []exp.CapturedPack {
		p := packs[:n]
		packs = packs[n:]
		return p
	}
	var got []string
	answer := func(f wire.Frame) wire.State {
		p := step(t, c, f, wire.TypeState)
		sum := sha256.Sum256(p)
		got = append(got, hex.EncodeToString(sum[:8]))
		st, err := wire.ParseState(p)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	diff := func(cursor uint64) wire.Frame {
		return wire.Frame{Type: wire.TypeDiff, Payload: wire.EncodeDiffReq(wire.DiffReq{Cursor: cursor})}
	}
	snapshot := wire.Frame{Type: wire.TypeSnapshot}

	feed(t, c, next(10))
	cursor := answer(snapshot).To
	feed(t, c, next(10))
	if st := answer(diff(cursor)); st.Full || st.To != cursor+1 {
		t.Fatalf("one-epoch diff covers (%d, %d] full=%v", st.From, st.To, st.Full)
	}
	cursor++
	for i := 0; i < 2; i++ {
		feed(t, c, next(10))
		step(t, c, snapshot, wire.TypeState)
	}
	feed(t, c, next(10))
	if st := answer(diff(cursor)); st.Full || st.To != cursor+3 {
		t.Fatalf("three-epoch diff covers (%d, %d] full=%v", st.From, st.To, st.Full)
	}
	for i := 0; i <= DefaultEpochCap; i++ {
		feed(t, c, next(2))
		step(t, c, snapshot, wire.TypeState)
	}
	if st := answer(diff(cursor)); !st.Full {
		t.Fatalf("aged-out diff covers (%d, %d] as a delta, want Full", st.From, st.To)
	}
	want := []string{"27491043d5a4d7db", "33063390297fc800", "a065dde5fc32d461", "c8bb7eaa1996b1e5"}
	for i, what := range []string{"snapshot", "one-epoch diff", "three-epoch diff", "aged-out diff"} {
		if got[i] != want[i] {
			t.Errorf("%s payload hashes %s, want %s", what, got[i], want[i])
		}
	}
}

// TestQueryPathZeroAllocs guards the query path: on a warm session whose
// epoch log has filled, so every seal evicts an epoch, a pack, a one-epoch
// Diff and a Snapshot through conn.handle allocate nothing — the sealed
// bytes come from the pack pool and go back to it, and both answers are
// encoded into storage the session and the connection keep. Once with the
// default modules and once with the live set: wait-state (the pack pairs
// its sends and receives), sizes, call sites, temporal and windows.
func TestQueryPathZeroAllocs(t *testing.T) {
	app := []wire.AppMeta{{AppID: 3, Name: "app", Procs: 4}}
	for _, tc := range []struct {
		name string
		meta wire.SessionMeta
	}{
		{"default", wire.SessionMeta{Title: "t", Apps: app}},
		{"live", wire.SessionMeta{Title: "t", WaitState: true, Sizes: true, Callsites: true, TemporalWindowNs: 1000,
			WindowNs: 2000, WindowGraceNs: 500, Apps: app}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := queryConn(t, trace.PackV3, tc.meta)
			packs := foldPacks(tc.meta.WaitState)
			feed(t, c, []exp.CapturedPack{{Data: packs[0]}})
			pack := wire.Frame{Type: wire.TypePack, Payload: wire.EncodePack(0, packs[1])}
			var cursor [8]byte
			diff := wire.Frame{Type: wire.TypeDiff, Payload: cursor[:]}
			query := func() {
				if _, _, err := c.handle(pack); err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint64(cursor[:], c.sess.epoch.Load())
				for _, f := range []wire.Frame{diff, {Type: wire.TypeSnapshot}} {
					if typ, _, err := c.handle(f); err != nil || typ != wire.TypeState {
						t.Fatalf("frame %#x: reply %#x, err %v", f.Type, typ, err)
					}
				}
			}
			for i := 0; i < 2*DefaultEpochCap; i++ {
				query()
			}
			if allocs := testing.AllocsPerRun(100, query); allocs != 0 {
				t.Errorf("a pack, a one-epoch Diff and a Snapshot allocate %.1f objects, want 0", allocs)
			}
		})
	}
}

// TestLivePollZeroAllocs guards a live dashboard's poll, both ends: on a
// warm session over net.Pipe a client sends a pack, asks for the Diff
// since its cursor and applies it to its replayer, and neither the client,
// the pipe nor the daemon's connection goroutine allocates — the answer is
// parsed into storage the client keeps, and the pack opens no new window
// or bucket. The allocations are counted process-wide. Once with the
// default modules and once with the live set.
func TestLivePollZeroAllocs(t *testing.T) {
	app := []wire.AppMeta{{AppID: 3, Name: "app", Procs: 4}}
	for _, tc := range []struct {
		name string
		meta wire.SessionMeta
	}{
		{"default", wire.SessionMeta{Title: "t", Apps: app}},
		{"live", wire.SessionMeta{Title: "t", WaitState: true, Sizes: true, Callsites: true, TemporalWindowNs: 1000,
			WindowNs: 2000, WindowGraceNs: 500, Apps: app}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := pipeClient(t, New(Options{}), trace.PackV3)
			if _, err := c.Register(tc.meta); err != nil {
				t.Fatal(err)
			}
			replay := client.NewDiffReplayer(tc.meta)
			packs := foldPacks(tc.meta.WaitState)
			if err := c.SendPack(0, packs[0]); err != nil {
				t.Fatal(err)
			}
			poll := func() {
				if err := c.SendPack(0, packs[1]); err != nil {
					t.Fatal(err)
				}
				st, err := c.Diff(replay.Cursor())
				if err == nil {
					err = replay.Apply(st)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			// Until the epoch ring wraps, every seal takes fresh buffers
			// from the pack pool; from then on each takes the evicted one's.
			for i := 0; i < 2*DefaultEpochCap; i++ {
				poll()
			}
			if allocs := testing.AllocsPerRun(100, poll); allocs != 0 {
				t.Errorf("a pack, a one-epoch Diff and its Apply allocate %.1f objects, want 0", allocs)
			}
			snap, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := replay.Verify(snap); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEpochRingAllocatedOnce: the sealed-epoch ring comes whole with the
// session, so filling its slots allocates nothing.
func TestEpochRingAllocatedOnce(t *testing.T) {
	meta := wire.SessionMeta{Title: "t", Apps: []wire.AppMeta{{AppID: 3, Name: "a", Procs: 4}, {AppID: 4, Name: "b", Procs: 4}}}
	s := newSession(1, trace.PackV3, meta, newGovernor(0, 0, 0), 1)
	defer s.shutdown()
	e := uint64(0)
	allocs := testing.AllocsPerRun(DefaultEpochCap-1, func() {
		e++
		if se := s.slot(e); len(se.apps) != 2 {
			t.Fatalf("slot %d holds %d apps, want 2", e, len(se.apps))
		}
	})
	if len(s.sealed) != DefaultEpochCap || allocs != 0 {
		t.Errorf("filling %d of %d slots allocates %.1f objects, want 0", len(s.sealed), DefaultEpochCap, allocs)
	}
}
