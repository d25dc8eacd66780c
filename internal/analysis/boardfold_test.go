package analysis

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/blackboard"
	"repro/internal/trace"
)

// packStream encodes one rank's events as an ordered pack sequence in the
// given wire format (small packs, so every rank ships several).
func packStream(t *testing.T, version int, appID uint32, rank int32, evs []trace.Event) [][]byte {
	t.Helper()
	b, err := trace.NewBuilder(version, appID, rank, 48, 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	var packs [][]byte
	for i := range evs {
		if b.Add(&evs[i]) {
			packs = append(packs, b.Take())
		}
	}
	if last := b.Take(); last != nil {
		packs = append(packs, last)
	}
	return packs
}

// canonicalWithShed is canonicalOf plus the completeness ledger, so the
// comparison also covers what audit packs fed.
func canonicalWithShed(p *Pipeline) []byte {
	out := canonicalOf(p)
	for _, k := range p.Completeness.Kinds() {
		st := p.Completeness.Stat(k)
		out = fmt.Appendf(out, "|shed %d %d %d", k, st.Shed, st.Kept)
	}
	return out
}

// sortEvents orders events totally, for multiset comparison.
func sortEvents(evs []trace.Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.TStart != b.TStart {
			return a.TStart < b.TStart
		}
		return a.Kind < b.Kind
	})
}

// TestBoardPathDifferential feeds one seeded event stream plus an audit
// pack through every way a pack can reach the modules — the board's fold
// KS on v1 and on v2 packs, the same KS over per-worker replicas at 1, 2
// and 4 workers, and the fused v3 ingest — and requires byte-identical
// canonical state from all of them. Where the export tap is attached
// (everywhere but replica mode, which excludes it) it must have seen
// every event exactly once.
func TestBoardPathDifferential(t *testing.T) {
	const ranks, perRank = 4, 400
	var all []trace.Event
	streams := map[int][][][]byte{}
	for r := int32(0); r < ranks; r++ {
		evs := fusedWorkload(r, perRank)
		all = append(all, evs...)
		for _, v := range []int{trace.PackV1, trace.PackV2, trace.PackV3} {
			streams[v] = append(streams[v], packStream(t, v, 7, r, evs))
		}
	}
	sortEvents(all)
	audit := trace.EncodeAuditPack(7, 1, []trace.AuditEntry{
		{Kind: trace.KindSend, Shed: 3, Kept: 9},
		{Kind: trace.KindBarrier, Shed: 1, Kept: 4},
	})

	run := func(t *testing.T, version, replicaWorkers int) []byte {
		workers := 4
		if replicaWorkers > 0 {
			workers = replicaWorkers
		}
		d, p := fullPipeline(t, workers)
		var exp *ExportModule
		if replicaWorkers > 0 {
			// A short epoch, so merges happen mid-stream.
			if err := p.EnableReplicas(64); err != nil {
				t.Fatal(err)
			}
		} else {
			var err error
			if exp, err = p.EnableExport("all", nil); err != nil {
				t.Fatal(err)
			}
		}
		fi := NewFusedIngest(d)
		for r, packs := range streams[version] {
			for _, pk := range packs {
				if version != trace.PackV3 {
					d.PostRaw(pk)
				} else if _, err := fi.Absorb(r, pk); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := fi.Absorb(1, audit); err != nil {
			t.Fatal(err)
		}
		d.bb.Drain()
		p.Settle()
		if st := d.bb.Stats(); st.OpPanics != 0 || st.Dropped != 0 || st.Unclaimed != 0 {
			t.Fatalf("board stats %+v", st)
		}
		if got := p.Profiler.Events(); got != ranks*perRank {
			t.Fatalf("analyzed %d events, want %d", got, ranks*perRank)
		}
		if exp != nil {
			var seen []trace.Event
			if err := readExported(drainPacks(exp), func(e *trace.Event) { seen = append(seen, *e) }); err != nil {
				t.Fatal(err)
			}
			sortEvents(seen)
			if len(seen) != len(all) {
				t.Fatalf("export tap saw %d events, want %d", len(seen), len(all))
			}
			for i := range seen {
				if seen[i] != all[i] {
					t.Fatalf("export tap event %d = %+v, want %+v", i, seen[i], all[i])
				}
			}
		}
		return canonicalWithShed(p)
	}

	want := run(t, trace.PackV1, 0)
	for _, c := range []struct {
		name             string
		version, workers int
	}{
		{"board-v2", trace.PackV2, 0},
		{"fused-v3", trace.PackV3, 0},
		{"replicas1-v1", trace.PackV1, 1},
		{"replicas2-v1", trace.PackV1, 2},
		{"replicas4-v1", trace.PackV1, 4},
		{"replicas2-v2", trace.PackV2, 2},
		{"replicas4-v2", trace.PackV2, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := run(t, c.version, c.workers); !bytes.Equal(got, want) {
				t.Errorf("canonical state diverged from the v1 board path")
			}
		})
	}
}

// TestBoardPostsPerPack pins the board's unit of work to the pack: N raw
// packs cost two posts each (rawpack, then pack@level), however many events
// they hold — a count, so a per-event fan-out cannot creep back — and every
// entry finds its listener.
func TestBoardPostsPerPack(t *testing.T) {
	d, p := fullPipeline(t, 4)
	n := 0
	for r := int32(0); r < 4; r++ {
		for _, pk := range packStream(t, trace.PackV1, 7, r, fusedWorkload(r, 500)) {
			d.PostRaw(pk)
			n++
		}
	}
	d.bb.Drain()
	st := d.bb.Stats()
	if st.Posted != int64(2*n) {
		t.Errorf("%d packs cost %d board posts, want %d", n, st.Posted, 2*n)
	}
	if st.Unclaimed != 0 || st.Dropped != 0 || st.OpPanics != 0 {
		t.Errorf("board stats %+v", st)
	}
	if got := p.Profiler.Events(); got != 4*500 {
		t.Errorf("analyzed %d events, want %d", got, 4*500)
	}
}

// TestBoardFoldAllocsPerPack: folding a v1 pack on the board allocates
// per pack (entries, job, reader), not per event.
func TestBoardFoldAllocsPerPack(t *testing.T) {
	d, _ := fullPipeline(t, 1)
	perPack := func(events int) float64 {
		evs := fusedWorkload(0, events)
		b := trace.NewPackBuilder(7, 0, 48, 1<<20)
		for i := range evs {
			b.Add(&evs[i])
		}
		pk := b.Take()
		post := func() {
			d.PostRaw(pk)
			d.bb.Drain()
		}
		post() // warm the modules' maps and the wait-state queues
		return testing.AllocsPerRun(20, post)
	}
	small, big := perPack(16), perPack(1024)
	t.Logf("allocs per pack: %.1f (16 events), %.1f (1024 events)", small, big)
	if big > small+2 || big > 32 {
		t.Errorf("board fold allocates %.1f per 1024-event pack vs %.1f per 16-event pack, want O(1) per pack", big, small)
	}
}

// BenchmarkBoardFold times the board's pack fold — raw v1 packs of eight
// writers per application posted through the dispatcher onto two workers,
// sizes and call sites on — over the axes ROADMAP 4b has to decide on:
// folding under the state's mutexes or into per-worker replicas, with one
// application level or two, in 1 MiB or 16 KiB packs. One iteration posts every pack and drains (and settles);
// the figure of merit is Mevents/s.
func BenchmarkBoardFold(b *testing.B) {
	const writers, perWriter = 8, 1 << 17
	for _, apps := range []int{1, 2} {
		for _, pack := range []struct {
			name  string
			bytes int
		}{{"1M", 1 << 20}, {"16K", 16 << 10}} {
			var packs [][]byte
			for app := 0; app < apps; app++ {
				for w := int32(0); w < writers; w++ {
					pb := trace.NewPackBuilder(uint32(app), w, 48, pack.bytes)
					for _, ev := range fusedWorkload(w, perWriter) {
						if pb.Add(&ev) {
							packs = append(packs, pb.Take())
						}
					}
					if last := pb.Take(); last != nil {
						packs = append(packs, last)
					}
				}
			}
			for _, replicas := range []bool{false, true} {
				fold := "locked"
				if replicas {
					fold = "replica"
				}
				b.Run(fmt.Sprintf("apps%d/%s/%s", apps, pack.name, fold), func(b *testing.B) {
					bb := blackboard.New(blackboard.Config{Workers: 2})
					defer bb.Close()
					d, err := NewDispatcher(bb)
					if err != nil {
						b.Fatal(err)
					}
					pipes := make([]*Pipeline, apps)
					for app := range pipes {
						p, err := d.AddApp(uint32(app), fmt.Sprintf("app%d", app), 4)
						if err != nil {
							b.Fatal(err)
						}
						if _, err := p.EnableSizes(); err != nil {
							b.Fatal(err)
						}
						if _, err := p.EnableCallsites(); err != nil {
							b.Fatal(err)
						}
						if replicas {
							if err := p.EnableReplicas(0); err != nil {
								b.Fatal(err)
							}
						}
						pipes[app] = p
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for _, pk := range packs {
							d.PostRaw(pk)
						}
						bb.Drain()
						for _, p := range pipes {
							p.Settle()
						}
					}
					b.StopTimer()
					events := int64(b.N) * int64(apps*writers*perWriter)
					if got := pipes[0].Profiler.Events() * int64(apps); got != events {
						b.Fatalf("folded %d events, want %d", got, events)
					}
					b.ReportMetric(float64(events)/1e6/b.Elapsed().Seconds(), "Mevents/s")
				})
			}
		}
	}
}
