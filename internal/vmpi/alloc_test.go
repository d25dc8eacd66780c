package vmpi

import (
	"testing"

	"repro/internal/trace"
)

// TestStreamAllocsAmortized bounds the allocation cost of the stream hot
// path. One writer pushes many size-only blocks through the credit
// protocol to one reader that releases each block; the TOTAL allocation
// count of the whole simulation is bounded, so the fixed setup cost
// (world, sessions, goroutines, maps) amortizes over enough blocks that
// any per-block allocation regression (control-message churn, scratch
// slices in the balance policies, read-order buffers) blows the budget.
func TestStreamAllocsAmortized(t *testing.T) {
	const blocks = 2000
	run := func() {
		_, err := launch(
			progSpec{"w", 1, func(s *Session) {
				var m Map
				if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
					t.Error(err)
					return
				}
				st := NewStream(s, 1024, BalanceRoundRobin)
				if err := st.OpenMap(&m, "w"); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < blocks; i++ {
					if err := st.Write(nil, 1024); err != nil {
						t.Error(err)
						return
					}
				}
				if err := st.Close(); err != nil {
					t.Error(err)
				}
			}},
			progSpec{"r", 1, func(s *Session) {
				var m Map
				if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
					t.Error(err)
					return
				}
				st := NewStream(s, 1024, BalanceRoundRobin)
				if err := st.OpenMap(&m, "r"); err != nil {
					t.Error(err)
					return
				}
				for {
					blk, err := st.Read(false)
					if err != nil {
						t.Error(err)
						return
					}
					if blk == nil {
						break
					}
					blk.Release()
				}
				if err := st.Close(); err != nil {
					t.Error(err)
				}
			}},
		)
		if err != nil {
			t.Error(err)
		}
	}
	allocs := testing.AllocsPerRun(2, run)
	// Each block costs one *Block on delivery plus a handful of DES/MPI
	// boxing allocations; the budget catches any O(blocks) regression in
	// the credit protocol or the balance policies (pre-optimization this
	// simulation allocated well over 40 objects per block).
	perBlock := (allocs - 500) / blocks
	if perBlock > 12 {
		t.Errorf("stream run allocated %.0f objects for %d blocks (~%.1f/block), want <= 12/block", allocs, blocks, perBlock)
	}
}

// TestBlockPoolRecycles pins the payload side of the pack pool: a released
// payload's storage is handed to the next request of its size class, and
// Release nils the payload so stale references cannot alias the recycled
// buffer.
func TestBlockPoolRecycles(t *testing.T) {
	buf := trace.GetBuffer(1 << 10)
	for i := range buf {
		buf[i] = byte(i)
	}
	blk := &Block{Payload: buf, Size: int64(len(buf))}
	hits, _ := trace.PoolCounters()
	blk.Release()
	if blk.Payload != nil {
		t.Fatal("Release left the payload reference in place")
	}
	got := trace.GetBuffer(1<<10 - 100)
	if len(got) != 1<<10-100 {
		t.Fatalf("GetBuffer returned %d bytes, want %d", len(got), 1<<10-100)
	}
	if now, _ := trace.PoolCounters(); now != hits+1 || &got[0] != &buf[0] {
		t.Errorf("the released payload did not serve the next request of its class (hits %d → %d)", hits, now)
	}
	blk.Release() // second release of a nil payload is a no-op
}
