package analysis_test

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/blackboard"
	"repro/internal/report"
	"repro/internal/trace"
)

// lockedPipeline is a pipeline with every optional module and a tumbling
// window series enabled, and the chapter that renders all of them.
type lockedPipeline struct {
	d       *analysis.Dispatcher
	p       *analysis.Pipeline
	chapter *report.Chapter
}

func newLockedPipeline(t *testing.T, ranks int) lockedPipeline {
	t.Helper()
	bb := blackboard.New(blackboard.Config{Workers: 1})
	t.Cleanup(bb.Close)
	d, err := analysis.NewDispatcher(bb)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.AddApp(7, "app", ranks)
	if err != nil {
		t.Fatal(err)
	}
	ch := &report.Chapter{App: "app", Procs: ranks,
		Profiler: p.Profiler, Topology: p.Topology, Density: p.Density, Completeness: p.Completeness}
	if ch.WaitState, err = p.EnableWaitState(); err != nil {
		t.Fatal(err)
	}
	if ch.Temporal, err = p.EnableTemporal(100); err != nil {
		t.Fatal(err)
	}
	if ch.Callsites, err = p.EnableCallsites(); err != nil {
		t.Fatal(err)
	}
	if ch.Sizes, err = p.EnableSizes(); err != nil {
		t.Fatal(err)
	}
	if ch.Windows, err = p.EnableWindows(2000, 0); err != nil {
		t.Fatal(err)
	}
	return lockedPipeline{d: d, p: p, chapter: ch}
}

func (lp lockedPipeline) render(t *testing.T) {
	rep := &report.Report{Title: "t", Chapters: []*report.Chapter{lp.chapter}}
	if err := rep.Render(io.Discard); err != nil {
		t.Error(err)
	}
}

// canonical renders once more — which settles the wait-state queues and
// credits the windows, as any reader does — and returns the pipeline's
// state as canonical partial bytes.
func (lp lockedPipeline) canonical(t *testing.T) []byte {
	lp.render(t)
	pp := analysis.NewPartial(0, lp.p.PartialOptions())
	pp.Profiler.Merge(lp.p.Profiler)
	pp.Topology.Merge(lp.p.Topology)
	pp.Density.Merge(lp.p.Density)
	pp.Waits.MergeFull(lp.chapter.WaitState)
	pp.Temporal.Merge(lp.chapter.Temporal)
	pp.Callsites.Merge(lp.chapter.Callsites)
	pp.Sizes.Merge(lp.chapter.Sizes)
	if err := pp.Windows.Merge(lp.chapter.Windows); err != nil {
		t.Fatal(err)
	}
	return pp.AppendCanonical(nil)
}

// rankStream is one rank's seeded, time-ordered event sequence: sends to
// and receives from its ring neighbours, waits, collectives.
func rankStream(rank, ranks int32, n int) []trace.Event {
	rng := rand.New(rand.NewSource(int64(rank)*7919 + 3))
	kinds := []trace.Kind{trace.KindSend, trace.KindRecv, trace.KindIsend, trace.KindWait, trace.KindBarrier, trace.KindAllreduce}
	evs := make([]trace.Event, n)
	now := int64(rank)
	for i := range evs {
		now += int64(rng.Intn(40)) + 1
		ev := trace.Event{Kind: kinds[i%len(kinds)], Rank: rank, Peer: (rank + 1) % ranks, Tag: int32(i % 3),
			Ctx: uint32(i % 5), Size: int64(rng.Intn(1 << 12)), TStart: now, TEnd: now + int64(rng.Intn(30)) + 1}
		if ev.Kind == trace.KindRecv || ev.Kind == trace.KindWait {
			ev.Peer = (rank + ranks - 1) % ranks
		}
		now = ev.TEnd
		evs[i] = ev
	}
	return evs
}

// TestConcurrentPackFoldsRenderAndAbsorb is the lock-order test of the
// per-pack locking: goroutines FoldPack distinct sources into one pipeline
// — each pack holding every module's mutex — while another renders the
// report and a third absorbs encoded tree partials, both taking module
// mutexes one at a time. It must not deadlock, must be clean under the race detector,
// and must end in the state a serial run reaches.
func TestConcurrentPackFoldsRenderAndAbsorb(t *testing.T) {
	const ranks, perRank, folders = 8, 600, 3
	const streamed = 6 // ranks 0-5 arrive as v3 packs, 6 and 7 as partials
	packs := make([][][]byte, streamed)
	for r := range packs {
		b := trace.NewPackBuilderV3(7, int32(r), 48, 1<<11)
		for _, ev := range rankStream(int32(r), ranks, perRank) {
			if b.Add(&ev) {
				packs[r] = append(packs[r], b.Take())
			}
		}
		if last := b.Take(); last != nil {
			packs[r] = append(packs[r], last)
		}
	}
	// The absorbed side: each remaining rank's stream as a run of small
	// encoded partials, in stream order.
	partials := func(opts analysis.PartialOptions) [][]byte {
		var out [][]byte
		for r := int32(streamed); r < ranks; r++ {
			evs := rankStream(r, ranks, perRank)
			for len(evs) > 0 {
				n := min(len(evs), 50)
				pp := analysis.NewPartial(7, opts)
				for i := range evs[:n] {
					pp.AddEvent(&evs[i])
				}
				out = append(out, pp.Flush(nil, true))
				evs = evs[n:]
			}
		}
		return out
	}
	foldSources := func(t *testing.T, lp lockedPipeline, sources []int) {
		decs := make([]trace.StreamDecoder, len(sources))
		for k := 0; ; k++ {
			progressed := false
			for i, src := range sources {
				if k < len(packs[src]) {
					if _, err := lp.p.FoldPack(&decs[i], packs[src][k]); err != nil {
						t.Error(err)
					}
					progressed = true
				}
			}
			if !progressed {
				return
			}
		}
	}

	serial := newLockedPipeline(t, ranks)
	foldSources(t, serial, []int{0, 1, 2, 3, 4, 5})
	for _, buf := range partials(serial.p.PartialOptions()) {
		if err := serial.d.AbsorbEncoded(buf); err != nil {
			t.Fatal(err)
		}
	}
	want := serial.canonical(t)

	lp := newLockedPipeline(t, ranks)
	absorbed := partials(lp.p.PartialOptions())
	var writers, reader sync.WaitGroup
	for g := 0; g < folders; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			foldSources(t, lp, []int{g, g + folders})
		}()
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for _, buf := range absorbed {
			if err := lp.d.AbsorbEncoded(buf); err != nil {
				t.Error(err)
			}
		}
	}()
	done := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			lp.render(t)
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	writers.Wait()
	close(done)
	reader.Wait()

	if got := lp.p.Profiler.Events(); got != ranks*perRank {
		t.Fatalf("analyzed %d events, want %d", got, ranks*perRank)
	}
	if !bytes.Equal(lp.canonical(t), want) {
		t.Error("concurrent pack folds, renders and absorbs ended in a different state than the serial run")
	}
}
