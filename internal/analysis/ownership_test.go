package analysis

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/trace"
)

// scribblePool draws every buffer the pack pool holds in the size classes
// of packs, fills it with 0xFF and puts it back: a pack that had gone back
// to the pool now reads garbage.
func scribblePool(packs [][]byte) {
	classes := map[int]bool{}
	for _, pk := range packs {
		classes[cap(pk)] = true
	}
	for n := range classes {
		var held [][]byte
		for {
			_, misses := trace.PoolCounters()
			buf := trace.GetBuffer(n)
			if _, now := trace.PoolCounters(); now != misses {
				break // the class is empty
			}
			buf = buf[:cap(buf)]
			for i := range buf {
				buf[i] = 0xFF
			}
			held = append(held, buf)
		}
		for _, buf := range held {
			trace.PutBuffer(buf)
		}
	}
}

// TestLentPackNeverRecycled: the entry points that take a pack lent —
// Dispatcher.PostRaw and FusedIngest.Absorb — never put it in the pack
// pool. Folded, drained, and folded again after every pool buffer of the
// packs' classes was drawn and scribbled on, v1 and v2 packs give the same
// profile both times.
func TestLentPackNeverRecycled(t *testing.T) {
	for _, version := range []int{trace.PackV1, trace.PackV2} {
		var packs [][]byte
		for r := int32(0); r < 4; r++ {
			packs = append(packs, packStream(t, version, 7, r, fusedWorkload(r, 300))...)
		}
		fold := func() []byte {
			d, p := fullPipeline(t, 4)
			fi := NewFusedIngest(d)
			for i, pk := range packs {
				if i%2 == 0 {
					d.PostRaw(pk)
				} else if _, err := fi.Absorb(i, pk); err != nil {
					t.Fatal(err)
				}
			}
			d.bb.Drain()
			if st := d.bb.Stats(); st.OpPanics != 0 {
				t.Fatalf("v%d: board stats %+v", version, st)
			}
			return canonicalOf(p)
		}
		want := fold()
		scribblePool(packs)
		if got := fold(); !bytes.Equal(got, want) {
			t.Errorf("v%d: re-posting lent packs changed the profile: the board recycled one", version)
		}
	}
}

// TestHandedOverPacksReleasedOnce: every pack handed over through the one
// absorb path — v1 and v2 packs on the board, with locked folds and with
// per-worker replicas, v3 packs on the fused path, an audit pack on the
// dispatcher — is released exactly once, and only when nothing reads it
// any more: the release scribbles the buffer, and the profile still
// matches the lent run's. A v3 pack is released before absorb returns.
func TestHandedOverPacksReleasedOnce(t *testing.T) {
	const ranks, perRank = 4, 300
	streams := map[int][][][]byte{}
	for r := int32(0); r < ranks; r++ {
		for _, v := range []int{trace.PackV1, trace.PackV2, trace.PackV3} {
			streams[v] = append(streams[v], packStream(t, v, 7, r, fusedWorkload(r, perRank)))
		}
	}
	audit := trace.EncodeAuditPack(7, 1, []trace.AuditEntry{{Kind: trace.KindSend, Shed: 3, Kept: 9}})

	run := func(t *testing.T, version, replicaWorkers int, handOver bool) []byte {
		workers := 4
		if replicaWorkers > 0 {
			workers = replicaWorkers
		}
		d, p := fullPipeline(t, workers)
		if replicaWorkers > 0 {
			if err := p.EnableReplicas(64); err != nil {
				t.Fatal(err)
			}
		}
		fi := NewFusedIngest(d)
		var mu sync.Mutex
		released := map[*byte]int{}
		var release func(any)
		if handOver {
			release = func(pack any) {
				buf := pack.([]byte)
				for i := range buf {
					buf[i] = 0xFF
				}
				mu.Lock()
				released[&buf[0]]++
				mu.Unlock()
			}
		}
		handed := 0
		absorb := func(src int, pk []byte) []byte {
			if handOver {
				// Hand over a copy: the lent originals serve the next run.
				pk = append([]byte(nil), pk...)
				handed++
			}
			if _, err := fi.absorb(src, pk, release); err != nil {
				t.Fatal(err)
			}
			return pk
		}
		for r, packs := range streams[version] {
			for _, pk := range packs {
				if pk = absorb(r, pk); handOver && version == trace.PackV3 && pk[0] != 0xFF {
					t.Fatalf("v3 pack from src %d not released when absorb returned", r)
				}
			}
		}
		absorb(1, audit)
		d.bb.Drain()
		p.Settle()
		if st := d.bb.Stats(); st.OpPanics != 0 || st.Dropped != 0 || st.Unclaimed != 0 {
			t.Fatalf("board stats %+v", st)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(released) != handed {
			t.Errorf("%d of %d handed-over packs released", len(released), handed)
		}
		for _, n := range released {
			if n != 1 {
				t.Errorf("a handed-over pack was released %d times", n)
			}
		}
		return canonicalWithShed(p)
	}

	for _, c := range []struct {
		name             string
		version, workers int
	}{
		{"board-v1", trace.PackV1, 0},
		{"board-v2", trace.PackV2, 0},
		{"fused-v3", trace.PackV3, 0},
		{"replicas2-v1", trace.PackV1, 2},
		{"replicas4-v2", trace.PackV2, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := run(t, c.version, c.workers, false)
			if got := run(t, c.version, c.workers, true); !bytes.Equal(got, want) {
				t.Errorf("handed-over packs folded to a different profile than lent ones")
			}
		})
	}
}
