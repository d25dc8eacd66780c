package serviced

import (
	"net"
	"runtime"
	"testing"

	"repro/internal/client"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestPackPathZeroAllocs guards the whole pack path, both ends: on a warm
// session a pack goes from client.SendPack through the frame writer, a
// loopback socket, the daemon's frame reader, session.ingest and the fold,
// and its credit comes back, without one allocation — no header array
// escaping through an io.Writer or io.Reader, no copy of the pack to
// prefix its writer id, no credit payload. The allocations are counted
// process-wide, so they cover the daemon's goroutine too.
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
	meta := wire.SessionMeta{Title: "t", Apps: []wire.AppMeta{{AppID: 3, Name: "app", Procs: 4}}}
	id, err := c.Register(meta)
	if err != nil {
		t.Fatal(err)
	}
	b := trace.NewPackBuilderV3(3, 0, 48, trace.PackHeaderSize+256*48)
	var packs [][]byte
	for i := 0; len(packs) < 2; i++ {
		ev := trace.Event{Kind: trace.KindIsend, Rank: int32(i % 4), Peer: int32((i + 1) % 4), Tag: 1,
			Size: 1 << 12, TStart: int64(i) * 100, TEnd: int64(i)*100 + 40}
		if b.Add(&ev) {
			packs = append(packs, b.Take())
		}
	}
	d.mu.Lock()
	sess := d.liveSess[id]
	d.mu.Unlock()
	// send streams n more copies of the second pack (its dictionary delta
	// is empty, so it decodes against the same stream state every time) and
	// waits until the daemon has folded them: SendPack returns once the
	// socket has the bytes.
	sent := int64(0)
	send := func(pack []byte, n int) {
		for i := 0; i < n; i++ {
			if err := c.SendPack(0, pack); err != nil {
				t.Fatal(err)
			}
		}
		for sent += int64(n); sess.packs.Load() < sent; {
			runtime.Gosched()
		}
	}
	send(packs[0], 1)
	send(packs[1], 4*DefaultWindow)
	// One run is one credit window: its packs, the governor's decisions,
	// the credit frame back. AllocsPerRun's average rounds down, which
	// forgives the runtime the handful of objects a GC cycle's cleanup
	// allocates and nothing that recurs per window.
	if allocs := testing.AllocsPerRun(64, func() { send(packs[1], DefaultWindow) }); allocs != 0 {
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
