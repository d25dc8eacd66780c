package serviced

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/trace"
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
	meta := client.SessionMetaFromCapture(cp)

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
