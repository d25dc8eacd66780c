package exp

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// drainPool takes every buffer the pack pool holds in the classes these
// runs use (64 B to 1 MiB) and returns how many there were.
func drainPool() (held int64) {
	for n := 64; n <= 1<<20; n *= 2 {
		for {
			hits, _ := trace.PoolCounters()
			trace.GetBuffer(n)
			if now, _ := trace.PoolCounters(); now == hits {
				break // the class is empty
			}
			held++
		}
	}
	return held
}

// TestProfileRunRecyclesPackStorage: the analysis is the last owner of
// every pack a profile run ships — the board returns a v1 or v2 pack once
// its fold KS, locked or on a worker's replica, is done with it, the fused
// ingest returns a v3 pack as it folds it — so once a run from an empty
// pool is over, every buffer it had to allocate is back in the pool. The
// count does not depend on when the board's workers released: a buffer
// reused within the run was allocated once.
func TestProfileRunRecyclesPackStorage(t *testing.T) {
	p := Tera100()
	ws := treeTestWorkloads(t)
	for _, c := range []struct{ version, replicas, packBytes int }{
		{trace.PackV1, 0, 0}, {trace.PackV2, 0, 0}, {trace.PackV3, 0, 0},
		{trace.PackV1, 2, 0}, {trace.PackV2, 0, 1 << 14},
	} {
		t.Run(fmt.Sprintf("v%d/replicas=%d/pack=%d", c.version, c.replicas, c.packBytes), func(t *testing.T) {
			opts := treeTestOpts()
			opts.Workers = 2
			opts.PackVersion, opts.Replicas, opts.PackBytes = c.version, c.replicas, c.packBytes
			drainPool()
			_, before := trace.PoolCounters()
			if _, err := ProfileRun(p, ws, opts); err != nil {
				t.Fatal(err)
			}
			_, after := trace.PoolCounters()
			allocated, back := after-before, drainPool()
			if allocated == 0 || back != allocated {
				t.Errorf("the run allocated %d pack buffers and %d came back", allocated, back)
			}
		})
	}
}
