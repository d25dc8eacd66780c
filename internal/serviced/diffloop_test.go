package serviced

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/client"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestDiffLoopCursorDepths runs the same pack stream through two
// sessions polled 200 times each: one whose cursor is always one epoch
// behind (every Diff is answered with the retained sealed bytes as they
// are) and one whose cursor is three behind (every Diff folds three
// sealed epochs into an accumulator with MergeEncoded). Both replayed
// states must verify against their daemon's Snapshot and equal each
// other byte for byte, and the sessions' query ledgers must show the
// work.
func TestDiffLoopCursorDepths(t *testing.T) {
	const polls = 200
	opts := testOpts
	opts.PackVersion = trace.PackV3
	opts.PackBytes = 256 // one event per pack: enough packs for 3 epochs a poll
	opts.TemporalWindowNs = (10 * time.Millisecond).Nanoseconds()
	opts.WindowNs = (5 * time.Millisecond).Nanoseconds()
	cp := capture(t, opts, [4]int{0, 'A', 16, 4})
	if len(cp.Packs) < 3*polls {
		t.Fatalf("capture has %d packs, need %d", len(cp.Packs), 3*polls)
	}
	meta := cp.SessionMeta()

	run := func(depth int) ([]byte, QueryStats) {
		d := New(Options{})
		c := pipeClient(t, d, cp.PackVersion)
		if _, err := c.Register(meta); err != nil {
			t.Fatal(err)
		}
		replay := client.NewDiffReplayer(meta)
		poll := func() {
			st, err := c.Diff(replay.Cursor())
			if err != nil {
				t.Fatal(err)
			}
			if st.Full || st.To-st.From != uint64(depth) {
				t.Fatalf("depth %d: diff covers (%d, %d] full=%v", depth, st.From, st.To, st.Full)
			}
			if err := replay.Apply(st); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range cp.Packs {
			if err := c.SendPack(uint32(p.Src), p.Data); err != nil {
				t.Fatal(err)
			}
			switch {
			case i >= 3*polls:
			case i%3 == 2:
				poll()
			case depth == 3:
				if _, err := c.Snapshot(); err != nil { // seals an epoch the cursor skips
					t.Fatal(err)
				}
			}
		}
		if st, err := c.Diff(replay.Cursor()); err != nil || replay.Apply(st) != nil {
			t.Fatalf("depth %d: tail diff: %v", depth, err)
		}
		snap, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := replay.Verify(snap); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		st, err := d.Status()
		if err != nil || len(st.Sessions) != 1 {
			t.Fatalf("depth %d: status %+v, %v", depth, st, err)
		}
		if st.QueryStats != st.Sessions[0].QueryStats {
			t.Fatalf("depth %d: daemon aggregate %+v != its one session %+v", depth, st.QueryStats, st.Sessions[0].QueryStats)
		}
		return bytes.Join(snap.Apps, nil), st.QueryStats
	}
	one, q1 := run(1)
	three, q3 := run(3)
	if !bytes.Equal(one, three) {
		t.Fatal("one-epoch and three-epoch cursors replayed to different states")
	}
	for depth, q := range map[int]QueryStats{1: q1, 3: q3} {
		if q.Diffs != polls+1 || q.Seals != int64(depth*polls+1) || q.SealNs <= 0 || q.DiffNs <= 0 || q.StateBytes <= 0 {
			t.Errorf("depth %d: query ledger %+v, want %d diffs over %d seals with time and bytes", depth, q, polls+1, depth*polls+1)
		}
	}
}

// TestLiveWindowsCarryLateSender: a live dashboard sees late-sender wait
// per window before the session closes. One Diff after the last pack seals
// the session's delta; the pairs that seal settles ride its whole-run sums
// and, credited to the windows covering their receives, its window series.
// The replayed state's Σ window late ns must equal its whole-run late ns,
// which must not be zero.
func TestLiveWindowsCarryLateSender(t *testing.T) {
	opts := testOpts
	opts.PackVersion = trace.PackV3
	opts.WindowNs = (5 * time.Millisecond).Nanoseconds()
	cp := capture(t, opts, [4]int{1, 'A', 16, 2})
	meta := cp.SessionMeta()
	c := pipeClient(t, New(Options{}), cp.PackVersion)
	if _, err := c.Register(meta); err != nil {
		t.Fatal(err)
	}
	for _, p := range cp.Packs {
		if err := c.SendPack(uint32(p.Src), p.Data); err != nil {
			t.Fatal(err)
		}
	}
	replay := client.NewDiffReplayer(meta)
	st, err := c.Diff(replay.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.Apply(st); err != nil {
		t.Fatal(err)
	}
	// The replayed state is byte-identical to the snapshot; read it there.
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.Verify(snap); err != nil {
		t.Fatal(err)
	}
	pp, err := analysis.DecodePartial(snap.Apps[0])
	if err != nil {
		t.Fatal(err)
	}
	var windows int64
	pp.Windows.AppendSeries(nil, func(wp *analysis.Partial) float64 {
		windows += wp.Waits.TotalLateNs()
		return 0
	})
	whole := pp.Waits.TotalLateNs()
	t.Logf("before Close: %d ns of late-sender wait over %d windows, %d ns in the whole run", windows, pp.Windows.Len(), whole)
	if whole == 0 {
		t.Fatal("the workload has no late sender: nothing to check")
	}
	if windows != whole {
		t.Errorf("Σ window late-sender wait %d ns != whole run %d ns", windows, whole)
	}
}

// TestDiffRecyclingOracle holds the recycled epoch ring to the Snapshot:
// a seeded session through conn.handle polls at random cursor depths —
// one epoch, several, exactly the ring's span, and older than
// DefaultEpochCap, which is answered Full — across hundreds of seals, so
// the ring wraps many times and every sealed buffer goes back to the pack
// pool and comes out again for a later epoch. Each answer is applied to a
// client-side replay before the next frame and must verify against the
// Snapshot after it. Epochs hold one to three of a v1 capture's packs
// taken round and round, so no two neighbours in the ring share their
// bytes.
func TestDiffRecyclingOracle(t *testing.T) {
	opts := testOpts
	opts.PackVersion = trace.PackV1
	opts.PackBytes = 1024
	opts.TemporalWindowNs = (10 * time.Millisecond).Nanoseconds()
	opts.WindowNs = (5 * time.Millisecond).Nanoseconds()
	cp := capture(t, opts, [4]int{0, 'A', 16, 2}, [4]int{1, 'A', 16, 1})
	meta := cp.SessionMeta()
	c := queryConn(t, trace.PackV1, meta)
	replay := client.NewDiffReplayer(meta)
	rng := rand.New(rand.NewPCG(53, 1))
	next := 0
	seal := func() {
		n := 1 + rng.IntN(3)
		for i := 0; i < n; i++ {
			feed(t, c, cp.Packs[next%len(cp.Packs):next%len(cp.Packs)+1])
			next++
		}
		step(t, c, wire.Frame{Type: wire.TypeSnapshot}, wire.TypeState)
	}
	depths := []int{1, 2, 3, 7, 19, DefaultEpochCap - 1, DefaultEpochCap, DefaultEpochCap + 1, DefaultEpochCap + 6}
	seals, full := 0, 0
	for round := 0; round < 40; round++ {
		depth := depths[rng.IntN(len(depths))]
		for i := 1; i < depth; i++ {
			seal()
		}
		feed(t, c, cp.Packs[next%len(cp.Packs):next%len(cp.Packs)+1]) // the Diff seals the last epoch
		next++
		seals += depth
		st, err := wire.ParseState(step(t, c, wire.Frame{Type: wire.TypeDiff, Payload: wire.EncodeDiffReq(wire.DiffReq{Cursor: replay.Cursor()})}, wire.TypeState))
		if err != nil {
			t.Fatal(err)
		}
		if aged := depth > DefaultEpochCap; st.Full != aged || (!aged && st.To-st.From != uint64(depth)) {
			t.Fatalf("round %d: a cursor %d epochs deep got (%d, %d] full=%v", round, depth, st.From, st.To, st.Full)
		}
		if st.Full {
			full++
		}
		if err := replay.Apply(st); err != nil {
			t.Fatal(err)
		}
		snap, err := wire.ParseState(step(t, c, wire.Frame{Type: wire.TypeSnapshot}, wire.TypeState))
		if err != nil {
			t.Fatal(err)
		}
		if err := replay.Verify(snap); err != nil {
			t.Fatalf("round %d, cursor %d epochs deep: %v", round, depth, err)
		}
	}
	if seals <= 4*DefaultEpochCap || full == 0 {
		t.Fatalf("%d seals and %d full resyncs: the ring did not wrap enough", seals, full)
	}
}
