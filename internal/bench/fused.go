package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/blackboard"
	"repro/internal/report"
	"repro/internal/trace"
)

// IngestCorpus is the corpus fused_ingest and daemon_ingest share: 64
// writers × 32 768 events in 64 KiB-logical v3 packs.
var IngestCorpus = CorpusConfig{Writers: 64, EventsPerWriter: 32768, EventsPerPack: 256, PackVersion: trace.PackV3}

// queriesPerPass is how many event→query samples one ingest pass takes.
const queriesPerPass = 32

// queryEvery returns the number of packs between two queries.
func queryEvery(packs int) int {
	if packs < queriesPerPass {
		return 1
	}
	return packs / queriesPerPass
}

// benchTitle and benchApp head every report the ingest workloads
// render, so the in-process and daemon reports can be compared byte for
// byte.
const (
	benchTitle = "bench"
	benchApp   = "bench"
)

// reference is the expected result of analyzing a corpus, computed from
// outside the engine: a plain analysis.Partial folded event by event
// from the same packs.
type reference struct {
	partial   *analysis.Partial
	canonical []byte
	rendered  []byte
}

// foldReference decodes every pack of the corpus through per-writer
// stream decoders into one Partial with the given module selection.
func foldReference(c *Corpus, opts analysis.PartialOptions) (*reference, error) {
	opts.AppSize = c.Config.Writers
	pp := analysis.NewPartial(AppID, opts)
	decs := make([]trace.StreamDecoder, c.Config.Writers)
	for _, pk := range c.Packs {
		if _, err := decs[pk.Src].DecodeDispatch(pk.Data, pp.AddEvent); err != nil {
			return nil, fmt.Errorf("bench: reference decode: %w", err)
		}
	}
	ref := &reference{partial: pp, canonical: pp.AppendCanonical(nil)}
	var buf bytes.Buffer
	if err := partialReport(pp, c.Config.Writers).Render(&buf); err != nil {
		return nil, err
	}
	ref.rendered = buf.Bytes()
	return ref, nil
}

// partialReport wraps a partial's modules in the one-chapter report the
// ingest workloads render.
func partialReport(pp *analysis.Partial, procs int) *report.Report {
	comp := pp.Shed
	if comp == nil {
		comp = analysis.NewCompletenessModule()
	}
	return &report.Report{Title: benchTitle, Chapters: []*report.Chapter{{
		App: benchApp, Procs: procs,
		Profiler: pp.Profiler, Topology: pp.Topology, Density: pp.Density,
		WaitState: pp.Waits, Temporal: pp.Temporal, Callsites: pp.Callsites, Sizes: pp.Sizes,
		Completeness: comp, Windows: pp.Windows,
	}}}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// fusedInstance is the standalone engine workload: packs go straight
// into analysis.FusedIngest on the caller's goroutine.
type fusedInstance struct {
	*ingestInputs
	buf bytes.Buffer
}

// ingestInputs is what fused_ingest and daemon_ingest run on: the
// generated packs and the result they must produce.
type ingestInputs struct {
	corpus *Corpus
	ref    *reference
}

// fingerprint is the hash of the reference fold's canonical bytes — which
// every fused pass's report and every daemon pass's final Snapshot must
// reproduce.
func (in *ingestInputs) fingerprint() (string, string) {
	return fingerprintKey("ingest", in.corpus.Seed), sha(in.ref.canonical)
}

// buildIngestInputs generates the ingest corpus for a seed, folds the
// reference result, and checks it against the checked-in fingerprint.
func buildIngestInputs(cfg CorpusConfig, seed int64) (*ingestInputs, error) {
	c, err := BuildCorpus(cfg, seed)
	if err != nil {
		return nil, err
	}
	ref, err := foldReference(c, analysis.PartialOptions{})
	if err != nil {
		return nil, err
	}
	in := &ingestInputs{corpus: c, ref: ref}
	if cfg == IngestCorpus {
		if err := checkFingerprint(in.fingerprint()); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func setupFused(in *ingestInputs) instance {
	return &fusedInstance{ingestInputs: in}
}

func (w *fusedInstance) close() {}

func (w *fusedInstance) extras() map[string]Value { return nil }

// run is one pass: a fresh engine absorbs the whole corpus; eight times
// along the way the caller asks for the report, timed from just before
// the last Absorb that contributes to it.
func (w *fusedInstance) run(tr *Tracer, parent SpanRef, id int) (unit, error) {
	var u unit
	c := w.corpus
	bb := blackboard.New(blackboard.Config{Workers: 2})
	defer bb.Close()
	disp, err := analysis.NewDispatcher(bb)
	if err != nil {
		return u, err
	}
	pipe, err := disp.AddApp(AppID, benchApp, c.Config.Writers)
	if err != nil {
		return u, err
	}
	fi := analysis.NewFusedIngest(disp)
	rep := &report.Report{Title: benchTitle, Chapters: []*report.Chapter{{
		App: benchApp, Procs: c.Config.Writers,
		Profiler: pipe.Profiler, Topology: pipe.Topology, Density: pipe.Density,
		Completeness: pipe.Completeness,
	}}}
	every := queryEvery(len(c.Packs))
	for k, pk := range c.Packs {
		query := (k+1)%every == 0 || k == len(c.Packs)-1
		var tq time.Time
		if query {
			tq = time.Now()
		}
		sp := tr.Begin(parent, "analysis.FusedIngest.Absorb", id)
		_, err := fi.Absorb(int(pk.Src), pk.Data)
		sp.End()
		u.attempted++
		if err != nil {
			u.failed++
			return u, fmt.Errorf("bench: absorb pack %d: %w", k, err)
		}
		if !query {
			continue
		}
		qs := tr.Begin(parent, "query", id)
		sp = tr.Begin(qs, "blackboard.Drain", id)
		bb.Drain()
		sp.End()
		w.buf.Reset()
		sp = tr.Begin(qs, "report.Report.Render", id)
		err = rep.Render(&w.buf)
		sp.End()
		qs.End()
		u.attempted++
		if err != nil {
			u.failed++
			continue
		}
		u.latencies = append(u.latencies, time.Since(tq))
	}
	// Conservation: every generated event was analyzed, and the final
	// report is the reference's, byte for byte.
	u.events = pipe.Profiler.Events()
	u.wireBytes = c.WireBytes
	u.attempted += 2
	if u.events != c.Events {
		u.failed++
		return u, fmt.Errorf("bench: analyzed %d of %d generated events", u.events, c.Events)
	}
	if !bytes.Equal(w.buf.Bytes(), w.ref.rendered) {
		u.failed++
		return u, fmt.Errorf("bench: fused report differs from the reference fold (%s vs %s)", sha(w.buf.Bytes())[:12], sha(w.ref.rendered)[:12])
	}
	return u, nil
}
