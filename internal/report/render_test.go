package report

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"regexp"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/analysis"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// genKinds mixes named kinds of every class with the invalid zero and
// kinds no name was given to.
var genKinds = []trace.Kind{
	trace.KindSend, trace.KindIsend, trace.KindSendrecv, trace.KindRecv, trace.KindIrecv, trace.KindWait,
	trace.KindWaitall, trace.KindBarrier, trace.KindAllreduce, trace.KindBcast, trace.KindInit, trace.KindFinalize,
	0, 22, 99, 255,
}

// genEvents draws a stream over n ranks with times in [0, 16·scale).
// Shape 0 is empty, shape 1 has only zero-time, zero-byte events.
func genEvents(rng *rand.Rand, n, shape int, scale int64) []trace.Event {
	if shape == 0 {
		return nil
	}
	evs := make([]trace.Event, rng.Intn(4*n+60))
	for i := range evs {
		ev := trace.Event{
			Kind: genKinds[rng.Intn(len(genKinds))],
			Rank: int32(rng.Intn(n+1)) - int32(rng.Intn(2)), Peer: int32(rng.Intn(n)),
			Ctx: uint32(rng.Intn(16)), Tag: int32(rng.Intn(2)),
			TStart: rng.Int63n(100) * scale / 10,
		}
		ev.TEnd = ev.TStart + (rng.Int63n(60)-5)*scale/10
		if shape == 1 {
			ev.TEnd = ev.TStart
		} else if rng.Intn(3) > 0 {
			ev.Size = rng.Int63n(1 << rng.Intn(40))
		}
		evs[i] = ev
	}
	return evs
}

// genChapter folds a generated stream into a chapter with a random
// selection of the optional modules. Its times run on one of five scales,
// ns to hours, so every unit of a duration is printed; temporal buckets
// and windows are sized to the scale, at most a few hundred of them.
func genChapter(rng *rand.Rand, name string, n int) *Chapter {
	scale := []int64{1, 1e3, 1e6, 1e9, 36e11}[rng.Intn(5)]
	bucket := func() int64 { return max(scale*int64(1+rng.Intn(9))/10, 1) }
	opts := analysis.PartialOptions{
		AppSize: n, WaitState: rng.Intn(2) == 0, Callsites: rng.Intn(2) == 0, Sizes: rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		opts.TemporalWindowNs = bucket()
	}
	if rng.Intn(2) == 0 {
		opts.WindowNs = bucket()
		if rng.Intn(2) == 0 {
			opts.WindowSlideNs = opts.WindowNs / 2
		}
	}
	pp := analysis.NewPartial(1, opts)
	var tr *analysis.WindowTracker
	var tally *analysis.WindowTally
	if opts.WindowNs > 0 && rng.Intn(2) == 0 {
		tr = analysis.NewWindowTracker(opts.WindowNs, opts.WindowSlideNs, 0, nil)
		tally = tr.NewTally()
	}
	evs := genEvents(rng, n, rng.Intn(6), scale)
	for i := range evs {
		if tr != nil && i == len(evs)/2 && rng.Intn(2) == 0 {
			// The clock jumps past every window: the rest arrive late.
			tally.Commit()
			tr.SetNow(1 << 60)
		}
		pp.AddEvent(&evs[i])
		if tally != nil {
			tally.Observe(&evs[i])
		}
	}
	tally.Commit()
	if pp.Callsites != nil {
		for ctx := uint32(0); ctx < 16; ctx += uint32(1 + rng.Intn(4)) {
			pp.Callsites.Label(ctx, fmt.Sprintf("phase_%d", ctx))
		}
	}
	comp := analysis.NewCompletenessModule()
	if rng.Intn(3) == 0 {
		comp.AddAudit([]trace.AuditEntry{
			{Kind: trace.KindSend, Shed: rng.Int63n(100), Kept: rng.Int63n(1000)},
			{Kind: trace.KindAllreduce, Shed: rng.Int63n(2), Kept: 10},
			{Kind: genKinds[len(genKinds)-1], Shed: 3, Kept: 0},
		})
	}
	return &Chapter{
		App: name, Procs: n, WallTime: time.Duration(rng.Int63n(1 << rng.Intn(50))),
		Profiler: pp.Profiler, Topology: pp.Topology, Density: pp.Density,
		WaitState: pp.Waits, Temporal: pp.Temporal, Callsites: pp.Callsites, Sizes: pp.Sizes,
		Completeness: comp, Windows: pp.Windows, WindowLag: tr,
	}
}

// genReport draws report i: one or two chapters over 1, 47, 48, 64 or
// 300 ranks, with or without the engine-health chapter and stream-loss
// rows.
func genReport(rng *rand.Rand, i int) *Report {
	ranks := []int{1, 47, 48, 64, 300}
	r := &Report{Title: fmt.Sprintf("generated report %d", i)}
	for c := range 1 + rng.Intn(2) {
		n := ranks[rng.Intn(len(ranks))]
		r.Chapters = append(r.Chapters, genChapter(rng, fmt.Sprintf("GEN.%c.%d", 'A'+c, n), n))
	}
	if rng.Intn(3) == 0 {
		r.EngineHealth = &analysis.EngineHealthKS{}
		for s := range rng.Intn(4) {
			r.EngineHealth.Acc.AddSnapshot(&telemetry.Snapshot{Seq: uint64(s), VirtualNs: int64(s) * 1e6, Metrics: []telemetry.MetricSample{
				{Name: "stream.quarantined", Kind: telemetry.KindCounter}, // all zero: elided
				{Name: "board.queue_depth", Kind: telemetry.KindGauge, Value: rng.Int63n(100), Max: rng.Int63n(1e6)},
				{Name: "fold.pack_ns", Kind: telemetry.KindHistogram, Value: rng.Int63n(5), Sum: rng.Int63n(1e9)},
			}})
		}
	}
	for range rng.Intn(4) {
		r.StreamLoss = append(r.StreamLoss, StreamLossRow{
			App: "GEN.A", Rank: rng.Intn(300), Dropped: rng.Int63n(3), LostInFlight: rng.Int63n(2), Shed: rng.Int63n(1e6) * rng.Int63n(2),
		})
	}
	return r
}

// TestRenderMatchesOracle holds the append renderer to the fmt renderer
// it replaced, byte for byte, on 1 000 generated reports, and checks the
// generator reached every section and edge the renderer formats. The
// density grid and the sparkline are also held to it on their own, over
// lengths that downsample the grid (more than 48² ranks).
func TestRenderMatchesOracle(t *testing.T) {
	vrng := rand.New(rand.NewSource(50))
	for _, n := range []int{0, 1, 2, 71, 72, 73, 2304, 2305, 2401, 5000} {
		for _, fill := range []func() float64{
			func() float64 { return 0 },
			func() float64 { return float64(vrng.Intn(5)) },
			func() float64 { return vrng.NormFloat64() * 1e6 },
			func() float64 { return []float64{math.NaN(), math.Inf(1), -1, 3}[vrng.Intn(4)] },
		} {
			values := make([]float64, n)
			for i := range values {
				values[i] = fill()
			}
			for _, cols := range []int{0, 40, 48, 60, 72} {
				if got, want := string(buf(nil).density(values, cols)), oracleDensityASCII(values, cols); got != want {
					t.Fatalf("density of %d values, %d columns:\n got %q\nwant %q", n, cols, got, want)
				}
				if got, want := string(buf(nil).sparkline(values, cols)), oracleSparkline(values, cols); got != want {
					t.Fatalf("sparkline of %d values, %d columns:\n got %q\nwant %q", n, cols, got, want)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(49))
	seen := map[string]bool{}
	features := []string{
		`\dµs`, `\dns `, `\dh\d+m`, `-\d`, `Kind\(`, `invalid`, ` 0s `, ` 0 B`, ` 1 ranks`, `47 ranks`, `48 ranks`,
		`cell=max-pooled 48x48`, `Density map: wait time`, `Message-size distribution`,
		`Top call sites`, `ctx:`, `phase_`, `Temporal map`, `Wait-state analysis: 0 send/recv`,
		`total late-sender wait 0s`, `total late-sender wait [1-9]`, `tumbling`, `sliding`, `event-to-report lag`,
		`worst window completeness`, `late-sender/window`, `Measurement completeness`,
		`engine health \(0 snapshots\)`, `fold\.pack_ns`, `Per-stream loss accounting`,
	}
	var got, want bytes.Buffer
	for i := range 1000 {
		rep := genReport(rng, i)
		got.Reset()
		want.Reset()
		if err := rep.Render(&got); err != nil {
			t.Fatal(err)
		}
		if err := oracleRender(rep, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.String(), want.String()
			at := 0
			for at < min(len(g), len(w)) && g[at] == w[at] {
				at++
			}
			t.Fatalf("report %d differs at byte %d:\n got …%q\nwant …%q", i, at, g[max(at-80, 0):min(at+80, len(g))], w[max(at-80, 0):min(at+80, len(w))])
		}
		for _, f := range features {
			if !seen[f] && regexp.MustCompile(f).Match(got.Bytes()) {
				seen[f] = true
			}
		}
		if strings.Contains(got.String(), "stream.quarantined") {
			t.Fatalf("report %d renders an all-zero telemetry series", i)
		}
	}
	for _, f := range features {
		if !seen[f] {
			t.Errorf("no generated report renders %q", f)
		}
	}
}

// TestDurationMatchesString holds the duration field to
// time.Duration.String and fmt's rune-counted padding of it.
func TestDurationMatchesString(t *testing.T) {
	check := func(d time.Duration) bool {
		return string(buf(nil).dur(int64(d), 0)) == d.String() &&
			string(buf("x").dur(int64(d), 14)) == fmt.Sprintf("x%14s", d) &&
			string(buf("x").dur(int64(d), -14)) == fmt.Sprintf("x%-14s", d)
	}
	edges := []time.Duration{
		0, 1, -1, 999, -999, time.Microsecond, time.Microsecond + 1, 986764, time.Millisecond - 1, time.Millisecond,
		-time.Millisecond, time.Second - 1, time.Second, time.Second + 1, time.Minute - 1, time.Minute, time.Hour - 1,
		time.Hour, 2540400*time.Hour + 10*time.Minute + 10*time.Second, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	for _, d := range edges {
		if !check(d) {
			t.Errorf("dur(%d) = %q, want %q", int64(d), buf(nil).dur(int64(d), 0), d.String())
		}
	}
	// Shifting spreads the draws over every unit, not just hours.
	if err := quick.Check(func(ns int64, shift uint8) bool { return check(time.Duration(ns >> (shift % 64))) }, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// failAfter accepts n bytes, then fails.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return len(p), nil
	}
	n := f.n
	f.n = 0
	return n, errDiskFull
}

// TestRenderReturnsWriteError: a writer that fails at any byte of the
// report fails the render.
func TestRenderReturnsWriteError(t *testing.T) {
	rep := genReport(rand.New(rand.NewSource(1)), 0)
	var full bytes.Buffer
	if err := rep.Render(&full); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, full.Len() / 2, full.Len() - 1} {
		if err := rep.Render(&failAfter{n}); !errors.Is(err, errDiskFull) {
			t.Fatalf("writer failing after %d of %d bytes: Render returned %v", n, full.Len(), err)
		}
	}
	if err := rep.Render(&failAfter{full.Len()}); err != nil {
		t.Fatalf("writer with room for the report: %v", err)
	}
}

// allModulesChapter is a windowed chapter with every optional module on,
// late windows and shed events.
func allModulesChapter(n int) *Chapter {
	for seed := int64(0); ; seed++ {
		ch := genChapter(rand.New(rand.NewSource(seed)), "ALL.A", n)
		if ch.WaitState != nil && ch.Temporal != nil && ch.Callsites != nil && ch.Sizes != nil && ch.Windows != nil &&
			ch.WindowLag != nil && ch.WindowLag.LateEvents() > 0 && !ch.Completeness.Empty() && ch.Windows.Len() > 1 {
			return ch
		}
	}
}

// TestRenderZeroAllocs: once its scratch is warm, a render allocates
// nothing, whatever the chapter holds — the one fused_ingest queries
// (profile, topology, density, an empty shed ledger) or every optional
// module with windows. The engine-health chapter copies its series out of
// the telemetry accumulator and is not held to this.
func TestRenderZeroAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("under the race detector sync.Pool drops a quarter of what is put back")
	}
	fused := genChapter(rand.New(rand.NewSource(2)), "FUSED.A", 64)
	fused.WaitState, fused.Temporal, fused.Callsites, fused.Sizes, fused.Windows, fused.WindowLag = nil, nil, nil, nil, nil, nil
	fused.Completeness = analysis.NewCompletenessModule()
	for name, rep := range map[string]*Report{
		"fused_ingest":         {Title: "fused", Chapters: []*Chapter{fused}},
		"all-modules windowed": {Title: "all", Chapters: []*Chapter{allModulesChapter(48), allModulesChapter(300)}},
	} {
		if err := rep.Render(io.Discard); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { rep.Render(io.Discard) }); n != 0 {
			t.Errorf("%s: a warm Render allocates %v objects", name, n)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestRenderConcurrentReports renders distinct reports side by side: run
// under -race on several Ps, it shows no render shares pooled scratch
// with another.
func TestRenderConcurrentReports(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reps := make([]*Report, 8)
	want := make([]string, len(reps))
	for i := range reps {
		reps[i] = genReport(rng, i)
		var b bytes.Buffer
		if err := oracleRender(reps[i], &b); err != nil {
			t.Fatal(err)
		}
		want[i] = b.String()
	}
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b bytes.Buffer
			for range 20 {
				b.Reset()
				if err := rep.Render(&b); err != nil || b.String() != want[i] {
					t.Errorf("report %d: concurrent render differs (err %v)", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
