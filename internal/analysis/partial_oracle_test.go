package analysis

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/trace"
)

// The naive whole-run reference for the seven module sections: maps over
// the run's events and nothing of the engine's — no packs, no partials, no
// engine helper. Per module it is what a reader of the paper writes down:
// hits, bytes and time per call kind; the same per (sender, receiver) of
// outgoing point-to-point calls between ranks of the app, per (kind, rank)
// of the app, and per (call site, kind); per (kind, time bucket) the hits
// and bytes of the calls starting in the bucket and the time of every call
// spanning it, time before zero counted at zero; and the power-of-two
// histogram of outgoing message sizes; and the late-sender pairs, with
// the hits and wait per receiving rank, of the window reference's pairing
// (refPairs).

// The reference, for the oracles' daemon and archive legs
// (daemon_oracle_test.go, archive_oracle_test.go), external tests: the
// daemon and the replay import this package.
var (
	PartialOracleRun = partialOracleRun
	OraclePacks      = oraclePacks
	RefProfileOf     = refProfileOf
	EngineProfile    = engineProfile
	ProfileDiff      = profileDiff
)

// WindowOracleDiff holds a chapter's window series and its wait-state
// module to the window reference over the run's events, as oracleAgrees
// holds a decoded partial: "" when they agree, else where they differ.
func WindowOracleDiff(waits *WaitStateModule, wins *WindowedModule, evs []trace.Event, appSize int) string {
	got := engineRun(&Partial{Waits: waits, Windows: wins})
	want := refAnalyze(evs, appSize, wins.Window(), wins.Slide())
	if reflect.DeepEqual(got, want) {
		return ""
	}
	return refDiff(got, want)
}

// refCells is one module's answer: hits, bytes and time by a two-part key,
// no zero ones.
type refCells map[[2]int64][3]int64

func (c refCells) add(a, b int64, v [3]int64) {
	s := c[[2]int64{a, b}]
	c[[2]int64{a, b}] = [3]int64{s[0] + v[0], s[1] + v[1], s[2] + v[2]}
}

// refProfile is the reference's answer for a whole run. A size bucket is
// keyed by its lower bound, a late-sender cell by its rank: its hits and
// wait.
type refProfile struct {
	events, buckets, pairs                                   int64
	kinds, matrix, density, temporal, callsites, sizes, late refCells
}

func newRefProfile() refProfile {
	return refProfile{kinds: refCells{}, matrix: refCells{}, density: refCells{}, temporal: refCells{},
		callsites: refCells{}, sizes: refCells{}, late: refCells{}}
}

// refProfileOf runs the reference over a run's events, in any order, with
// temporal buckets of bucketNs.
func refProfileOf(evs []trace.Event, appSize int, bucketNs int64) refProfile {
	p := newRefProfile()
	inApp := func(r int32) bool { return r >= 0 && int(r) < appSize }
	for _, ev := range evs {
		k, v := int64(ev.Kind), [3]int64{1, ev.Size, ev.TEnd - ev.TStart}
		p.events++
		p.kinds.add(k, 0, v)
		p.callsites.add(int64(ev.Ctx), k, v)
		if inApp(ev.Rank) {
			p.density.add(k, int64(ev.Rank), v)
		}
		if ev.Kind == trace.KindSend || ev.Kind == trace.KindIsend || ev.Kind == trace.KindSendrecv {
			if inApp(ev.Rank) && inApp(ev.Peer) {
				p.matrix.add(int64(ev.Rank), int64(ev.Peer), v)
			}
			if ev.Size >= 0 {
				// The highest power of two up to the size, from 2 to 2^39;
				// 0 and 1 share the bucket from 0.
				lo := int64(0)
				for b := 1; b < 40; b++ {
					if int64(1)<<b <= ev.Size {
						lo = 1 << b
					}
				}
				p.sizes.add(lo, 0, [3]int64{1, ev.Size, 0})
			}
		}
		if ev.TEnd < ev.TStart {
			continue
		}
		start, end := max(ev.TStart, 0), max(ev.TEnd, 0)
		p.buckets = max(p.buckets, end/bucketNs+1)
		p.temporal.add(k, start/bucketNs, [3]int64{1, ev.Size, 0})
		for b := int64(0); b*bucketNs < end; b++ {
			if lo, hi := max(start, b*bucketNs), min(end, (b+1)*bucketNs); hi > lo {
				p.temporal.add(k, b, [3]int64{0, 0, hi - lo})
			}
		}
	}
	refPairs(evs, appSize, func(r refRecv, wait int64) {
		p.pairs++
		if wait > 0 {
			p.late.add(int64(r.rank), 0, [3]int64{1, wait, 0})
		}
	})
	return p
}

// engineProfile reads the same values out of a partial the way the report
// does, through the modules' accessors.
func engineProfile(pp *Partial) refProfile {
	p := newRefProfile()
	stat := func(st Stat) [3]int64 { return [3]int64{st.Hits, st.Bytes, st.TimeNs} }
	p.events = pp.Profiler.Events()
	for _, ks := range pp.Profiler.AppendStats(nil) {
		p.kinds[[2]int64{int64(ks.Kind)}] = stat(ks.Stat)
	}
	for _, e := range pp.Topology.AppendEdges(nil) {
		p.matrix[[2]int64{int64(e.Src), int64(e.Dst)}] = stat(e.Stat)
	}
	p.buckets = int64(pp.Temporal.Buckets())
	for kind := 0; kind < 256; kind++ {
		k := trace.Kind(kind)
		dense := func(cells refCells, values func(k trace.Kind, metric Metric) []float64) {
			hits, bytes, ns := values(k, MetricHits), values(k, MetricBytes), values(k, MetricTime)
			for i := range hits {
				if v := [3]int64{int64(hits[i]), int64(bytes[i]), int64(ns[i])}; v != ([3]int64{}) {
					cells[[2]int64{int64(k), int64(i)}] = v
				}
			}
		}
		dense(p.density, func(k trace.Kind, metric Metric) []float64 { return pp.Density.AppendMap(nil, k, metric) })
	}
	// The temporal rows are read as they are: a dense series per kind
	// costs 256 kinds × the bucket count.
	for k, per := range pp.Temporal.perKind {
		for b, st := range per {
			if st != (Stat{}) {
				p.temporal[[2]int64{int64(k), int64(b)}] = stat(st)
			}
		}
	}
	for _, c := range pp.Callsites.AppendTop(nil, 0) {
		p.callsites[[2]int64{int64(c.Ctx), int64(c.Kind)}] = stat(c.Stat)
	}
	for _, b := range pp.Sizes.AppendHistogram(nil) {
		p.sizes[[2]int64{b.Lo}] = [3]int64{b.Hits, b.Bytes, 0}
	}
	p.pairs = pp.Waits.Pairs()
	hits := pp.Waits.LateSenderHits()
	for r, ns := range pp.Waits.AppendLateSenderMap(nil) {
		if hits[r] != 0 || ns != 0 {
			p.late[[2]int64{int64(r)}] = [3]int64{hits[r], int64(ns), 0}
		}
	}
	return p
}

// TestPartialOracle holds the seven module sections to the naive reference on
// 1 000 generated runs with every module on, through the ingest paths
// TestWindowOracle drives, each compared on the values its canonical bytes
// decode to. The temporal buckets are drawn as narrow as 50 ns, so the
// streams' starts before zero reach back several buckets.
func TestPartialOracle(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		rng, perRank, opts, want := partialOracleRun(seed)
		for name, path := range ingestPaths(t, rng, opts, perRank, seed%oracleBoardEvery == 0) {
			pp, err := DecodePartial(path().AppendCanonical(nil))
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if got := engineProfile(pp); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s (temporal bucket %d ns): the decoded profile disagrees with the reference: %s",
					seed, name, opts.TemporalWindowNs, profileDiff(got, want))
			}
		}
	}
}

// partialOracleRun draws run seed of TestPartialOracle: its events per
// rank, the modules they fold into and the reference's answer, with the
// generator to draw the run's ingest paths from.
func partialOracleRun(seed int64) (*rand.Rand, [][]trace.Event, PartialOptions, refProfile) {
	const appSize = 5
	rng := rand.New(rand.NewSource(seed))
	perRank := oracleStream(rng, appSize)
	opts := PartialOptions{AppSize: appSize, WaitState: true, TemporalWindowNs: int64(50 + rng.Intn(1950)),
		Callsites: true, Sizes: true, WindowNs: int64(600 + rng.Intn(2400))}
	var evs []trace.Event
	for _, seq := range perRank {
		evs = append(evs, seq...)
	}
	return rng, perRank, opts, refProfileOf(evs, appSize, opts.TemporalWindowNs)
}

// profileDiff names a module and a cell where two answers differ.
func profileDiff(got, want refProfile) string {
	if got.events != want.events || got.buckets != want.buckets || got.pairs != want.pairs {
		return fmt.Sprintf("events %d, temporal buckets %d and wait-state pairs %d, want %d, %d and %d",
			got.events, got.buckets, got.pairs, want.events, want.buckets, want.pairs)
	}
	for _, m := range []struct {
		name      string
		got, want refCells
	}{
		{"profiler", got.kinds, want.kinds}, {"topology", got.matrix, want.matrix},
		{"density", got.density, want.density}, {"temporal", got.temporal, want.temporal},
		{"call sites", got.callsites, want.callsites}, {"sizes", got.sizes, want.sizes},
		{"late sender", got.late, want.late},
	} {
		for key, v := range m.want {
			if m.got[key] != v {
				return fmt.Sprintf("%s cell %v: got %v, want %v", m.name, key, m.got[key], v)
			}
		}
		for key, v := range m.got {
			if _, ok := m.want[key]; !ok {
				return fmt.Sprintf("%s cell %v: got %v, want none", m.name, key, v)
			}
		}
	}
	return noCellDiffers
}

// noCellDiffers is what profileDiff says of two equal answers.
const noCellDiffers = "no cell differs"

// TestPartialOracleCoarsened is TestPartialOracle past the temporal row
// cap: 1 000 runs whose buckets are drawn too narrow for maxTemporalBuckets,
// each through one of the same ingest paths in turn, agree with the
// reference taken at the width the engine coarsened to, which must be the
// configured one doubled: the width the reference reaches from the run's
// latest event alone, whatever path and merges got there.
func TestPartialOracleCoarsened(t *testing.T) {
	for seed, crossed := int64(0), 0; crossed < 1000; seed++ {
		rng, perRank, opts, _ := partialOracleRun(seed)
		// Starts and windows are stretched 32-fold and durations kept: an
		// event then spans a few of the coarsened buckets, not hundreds,
		// which keeps 1 000 runs cheap under -race.
		var evs []trace.Event
		var last int64
		for _, seq := range perRank {
			for i := range seq {
				ev := &seq[i]
				ev.TStart, ev.TEnd = 32*ev.TStart, 32*ev.TStart+ev.TEnd-ev.TStart
				last = max(last, ev.TEnd)
			}
			evs = append(evs, seq...)
		}
		if last < maxTemporalBuckets {
			continue // no width crosses the cap
		}
		crossed++
		opts.TemporalWindowNs, opts.WindowNs = 1+rng.Int63n(last/maxTemporalBuckets), 32*opts.WindowNs
		// The width a fold of the latest event alone settles at.
		width := opts.TemporalWindowNs
		for last/width >= maxTemporalBuckets {
			width *= 2
		}
		paths := ingestPaths(t, rng, opts, perRank, false)
		names := slices.Sorted(maps.Keys(paths))
		name := names[int(seed)%len(names)]
		pp, err := DecodePartial(paths[name]().AppendCanonical(nil))
		if err != nil {
			t.Fatalf("seed %d %s: %v", seed, name, err)
		}
		if w := pp.Temporal.Window(); w != width || pp.Temporal.Buckets() > maxTemporalBuckets {
			t.Fatalf("seed %d %s: width %d ns over %d buckets, want %d ns within the cap", seed, name, w, pp.Temporal.Buckets(), width)
		}
		if diff := profileDiff(engineProfile(pp), refProfileOf(evs, opts.AppSize, width)); diff != noCellDiffers {
			t.Fatalf("seed %d %s (temporal bucket %d ns, coarsened to %d): the decoded profile disagrees with the reference: %s",
				seed, name, opts.TemporalWindowNs, width, diff)
		}
	}
}
