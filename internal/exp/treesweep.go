package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/nas"
	"repro/internal/report"
)

// ProfileFingerprint renders the report with the run-dependent parts
// masked — per-chapter wall time zeroed, the engine-health chapter
// stripped — and returns a sha256 over the rest. Two runs with the same
// fingerprint produced byte-identical analysis content (profiles,
// topology, density, wait-state, temporal, call-site and size tables),
// which is how the tree sweep proves the reduction tree changes the
// transport but not the result.
func ProfileFingerprint(rep *report.Report) (string, error) {
	masked := &report.Report{Title: rep.Title}
	for _, ch := range rep.Chapters {
		c := *ch
		c.WallTime = 0
		masked.Chapters = append(masked.Chapters, &c)
	}
	h := sha256.New()
	if err := masked.Render(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TreeConfig selects one tree topology for the scaling sweep.
type TreeConfig struct {
	// Levels is ProfileOptions.TreeLevels (1 = flat).
	Levels int
	// Fanin is ProfileOptions.TreeFanin (0 = DefaultTreeFanin).
	Fanin int
	// FlushPacks is ProfileOptions.TreeFlushPacks.
	FlushPacks int
}

func (c TreeConfig) String() string {
	if c.Levels <= 1 {
		return "flat"
	}
	f := c.Fanin
	if f == 0 {
		f = DefaultTreeFanin
	}
	return fmt.Sprintf("tree-L%d-f%d", c.Levels, f)
}

// TreePoint is one topology's measurement in a tree scaling sweep.
type TreePoint struct {
	Config TreeConfig
	// TreeRanks is the aggregator partition size (0 when flat).
	TreeRanks int
	// AppSeconds is the slowest application's virtual wall time.
	AppSeconds float64
	// AnalyzedEvents counts events absorbed into the final profiles.
	AnalyzedEvents int64
	// RootIngestBytes / RootPosts count blackboard ingest volume — raw
	// packs when flat, encoded partials through the tree.
	RootIngestBytes int64
	RootPosts       int64
	// RootIngestRate is RootIngestBytes per application second.
	RootIngestRate float64
	// IngestReductionPct is the root-ingest-byte reduction versus the
	// sweep's flat baseline (0 for the baseline itself).
	IngestReductionPct float64
	// Fingerprint is the masked report hash; MatchesFlat records whether
	// it equals that of the flat fold of the run's own archive: the same
	// events, analysed without the tree.
	Fingerprint string
	MatchesFlat bool
}

// TreeScalingSweep profiles the same workloads once flat and once per
// tree configuration, all at equal event volume and on a pinned platform
// model, and reports each topology's root-blackboard ingest against the
// flat baseline. The first returned point is always the flat baseline.
// Each run's report is held to the flat fold of that run's own archive:
// aggregator traffic shifts the application's virtual time, and with it
// the events, so a separate flat run is no reference for a tree run.
func TreeScalingSweep(p Platform, workloads []*nas.Workload, base ProfileOptions, configs []TreeConfig) ([]TreePoint, error) {
	run := func(cfg TreeConfig) (TreePoint, error) {
		opts := base
		opts.TreeLevels = cfg.Levels
		opts.TreeFanin = cfg.Fanin
		opts.TreeFlushPacks = cfg.FlushPacks
		var archive bytes.Buffer
		opts.Export = &archive
		rep, stats, err := ProfileRunStats(p, workloads, opts)
		var ref *report.Report
		if err == nil {
			var cp *Capture
			if cp, err = readArchive(&archive); err == nil {
				ref, err = cp.analyse(opts.Workers)
			}
		}
		if err != nil {
			return TreePoint{}, fmt.Errorf("exp: tree sweep %s: %w", cfg, err)
		}
		fp, err := ProfileFingerprint(rep)
		if err != nil {
			return TreePoint{}, err
		}
		want, err := ProfileFingerprint(ref)
		if err != nil {
			return TreePoint{}, err
		}
		pt := TreePoint{
			Config:          cfg,
			TreeRanks:       stats.TreeRanks,
			AppSeconds:      stats.AppSeconds,
			AnalyzedEvents:  stats.AnalyzedEvents,
			RootIngestBytes: stats.RootIngestBytes,
			RootPosts:       stats.RootPosts,
			Fingerprint:     fp,
			MatchesFlat:     fp == want,
		}
		if pt.AppSeconds > 0 {
			pt.RootIngestRate = float64(pt.RootIngestBytes) / pt.AppSeconds
		}
		return pt, nil
	}

	flat, err := run(TreeConfig{Levels: 1})
	if err != nil {
		return nil, err
	}
	points := []TreePoint{flat}
	for _, cfg := range configs {
		pt, err := run(cfg)
		if err != nil {
			return nil, err
		}
		if flat.RootIngestBytes > 0 {
			pt.IngestReductionPct = 100 * (1 - float64(pt.RootIngestBytes)/float64(flat.RootIngestBytes))
		}
		points = append(points, pt)
	}
	return points, nil
}

// WriteTreeTable prints a tree scaling sweep, one topology per row, with
// the flat baseline first. shift-ms is the perturbation: how far the
// aggregators' traffic moved the application's virtual time from the flat
// run's, in milliseconds.
func WriteTreeTable(w io.Writer, points []TreePoint) {
	fmt.Fprintf(w, "%-12s %5s %9s %9s %10s %13s %12s %10s %6s\n",
		"topology", "aggs", "app-sec", "shift-ms", "events", "root-bytes", "bytes/sec", "reduction", "match")
	for _, pt := range points {
		fmt.Fprintf(w, "%-12s %5d %9.3f %+9.3f %10d %13d %12.0f %9.1f%% %6v\n",
			pt.Config, pt.TreeRanks, pt.AppSeconds, 1e3*(pt.AppSeconds-points[0].AppSeconds), pt.AnalyzedEvents,
			pt.RootIngestBytes, pt.RootIngestRate, pt.IngestReductionPct, pt.MatchesFlat)
	}
}
