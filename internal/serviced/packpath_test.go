package serviced

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/client"
	"repro/internal/trace"
	"repro/internal/wire"
)

// packMeta registers the one application packPair's packs belong to.
var packMeta = wire.SessionMeta{Title: "t", Apps: []wire.AppMeta{{AppID: 3, Name: "app", Procs: 4}}}

// packPair builds the first two v3 packs of one writer's stream. The
// first carries the dictionary; the second's dictionary delta is empty, so
// copies of it decode against the same stream state every time.
func packPair() (first, again []byte) {
	b := trace.NewPackBuilderV3(3, 0, 48, trace.PackHeaderSize+256*48)
	var packs [][]byte
	for i := 0; len(packs) < 2; i++ {
		ev := trace.Event{Kind: trace.KindIsend, Rank: int32(i % 4), Peer: int32((i + 1) % 4), Tag: 1,
			Size: 1 << 12, TStart: int64(i) * 100, TEnd: int64(i)*100 + 40}
		if b.Add(&ev) {
			packs = append(packs, b.Take())
		}
	}
	return packs[0], packs[1]
}

// TestPackPathZeroAllocs guards the whole pack path, both ends: on a warm
// session a credit window of packs goes from client.SendPack through the
// frame writer, a loopback socket, the daemon's frame reader,
// session.ingest and the fold, and its credit comes back, without one
// allocation — no header array escaping through an io.Writer or io.Reader,
// no copy of the pack to prefix its writer id, no credit payload. The
// allocations are counted process-wide, so they cover the daemon's
// goroutine too.
func TestPackPathZeroAllocs(t *testing.T) {
	d := New(Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Serve(l) }()
	c, err := client.Dial(l.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Register(packMeta)
	if err != nil {
		t.Fatal(err)
	}
	first, again := packPair()
	d.mu.Lock()
	sess := d.liveSess[id]
	d.mu.Unlock()
	// send streams n copies of the second pack and waits until the daemon
	// has folded them. The packs sent must end a credit window: SendPack
	// writes a window's packs when its last credit is spent, not before.
	if err := c.SendPack(0, first); err != nil {
		t.Fatal(err)
	}
	sent := int64(1)
	send := func(n int) {
		for i := 0; i < n; i++ {
			if err := c.SendPack(0, again); err != nil {
				t.Fatal(err)
			}
		}
		for sent += int64(n); sess.packs.Load() < sent; {
			runtime.Gosched()
		}
	}
	send(4*DefaultWindow - 1) // the first pack opened the first window
	// One run is one credit window: its packs, the governor's decisions,
	// the credit frame back. AllocsPerRun's average rounds down, which
	// forgives the runtime the handful of objects a GC cycle's cleanup
	// allocates and nothing that recurs per window.
	if allocs := testing.AllocsPerRun(64, func() { send(DefaultWindow) }); allocs != 0 {
		t.Errorf("a credit window of %d packs allocates %.0f objects, want 0", DefaultWindow, allocs)
	}

	if _, err := c.Close(wire.CloseMeta{Apps: []wire.AppFinal{{}}}); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	l.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// countingConn is a client's end of a connection, counting the writes that
// carry pack frames. Each write a client makes is one flush of its frame
// buffer, so it holds whole frames; a write that does not is recorded.
type countingConn struct {
	io.ReadWriteCloser
	packWrites int
	misframed  bool
}

func (c *countingConn) Write(p []byte) (int, error) {
	fr := wire.NewReader(bytes.NewReader(p))
	carries := false
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			c.misframed = true
			break
		}
		carries = carries || f.Type == wire.TypePack
	}
	if carries {
		c.packWrites++
	}
	return c.ReadWriteCloser.Write(p)
}

// TestWindowIsOneWrite holds the client's batching to its rule, on the
// unbuffered net.Pipe and on loopback TCP: a credit window's packs reach
// the connection in one write, when the window's last credit is spent or
// ahead of the next request, and never later.
func TestWindowIsOneWrite(t *testing.T) {
	first, again := packPair()
	transports := []struct {
		name    string
		connect func(t *testing.T, opts Options) io.ReadWriteCloser
	}{
		{"pipe", func(t *testing.T, opts Options) io.ReadWriteCloser {
			srv, cli := net.Pipe()
			go New(opts).ServeConn(srv)
			return cli
		}},
		{"tcp", func(t *testing.T, opts Options) io.ReadWriteCloser {
			_, addr := startTCP(t, opts)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			return conn
		}},
	}
	for _, tr := range transports {
		// open registers a session with a fresh daemon over a counted
		// connection.
		open := func(t *testing.T, opts Options) (*client.Client, *countingConn) {
			cc := &countingConn{ReadWriteCloser: tr.connect(t, opts)}
			c, err := client.New(cc, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Shutdown() })
			if _, err := c.Register(packMeta); err != nil {
				t.Fatal(err)
			}
			return c, cc
		}
		// stream sends n packs of one writer's stream and returns their
		// event count.
		stream := func(t *testing.T, c *client.Client, n int) int64 {
			events := int64(0)
			for i := 0; i < n; i++ {
				pack := again
				if i == 0 {
					pack = first
				}
				if err := c.SendPack(0, pack); err != nil {
					t.Fatal(err)
				}
				h, _ := trace.PeekHeader(pack)
				events += int64(h.Count)
			}
			return events
		}
		// closeBalanced closes the session and checks its ledger: every
		// pack delivered, every event analyzed or shed.
		closeBalanced := func(t *testing.T, c *client.Client, packs int, events int64) wire.FinalReport {
			rep, err := c.Close(wire.CloseMeta{Apps: []wire.AppFinal{{}}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Packs != int64(packs) || rep.Events+rep.Shed != events {
				t.Fatalf("report: %d packs, %d events + %d shed; sent %d packs, %d events", rep.Packs, rep.Events, rep.Shed, packs, events)
			}
			return rep
		}
		// writes checks the pack-carrying write count.
		writes := func(t *testing.T, cc *countingConn, want int) {
			if cc.misframed || cc.packWrites != want {
				t.Fatalf("%d pack-carrying writes (misframed %v), want %d", cc.packWrites, cc.misframed, want)
			}
		}

		t.Run(tr.name+"/windows", func(t *testing.T) {
			c, cc := open(t, Options{})
			events := stream(t, c, 4*DefaultWindow)
			writes(t, cc, 4)
			closeBalanced(t, c, 4*DefaultWindow, events)
			writes(t, cc, 4)
		})
		t.Run(tr.name+"/snapshot ends a window", func(t *testing.T) {
			c, cc := open(t, Options{})
			events := stream(t, c, 3)
			writes(t, cc, 0)
			st, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			writes(t, cc, 1)
			p, err := analysis.DecodePartial(st.Apps[0])
			if err != nil {
				t.Fatal(err)
			}
			if got := p.Profiler.Events(); got != events {
				t.Fatalf("snapshot covers %d events, the 3 packs before it carry %d", got, events)
			}
			closeBalanced(t, c, 3, events)
		})
		t.Run(tr.name+"/window of one", func(t *testing.T) {
			// Every byte past the budget reads as backlog twice the overload
			// line, so the governor's first step, DefaultGovernEvery packs in,
			// takes it to the top of its ladder before the register-time
			// window is spent: that window goes out whole, every later window
			// is one pack.
			c, cc := open(t, Options{SessionBudgetBytes: 1, BacklogHighBytes: 1})
			events := stream(t, c, 4*DefaultWindow)
			writes(t, cc, 1+3*DefaultWindow)
			if rep := closeBalanced(t, c, 4*DefaultWindow, events); rep.Shed == 0 {
				t.Fatal("a session at the top of the ladder shed nothing")
			}
		})
	}
}
