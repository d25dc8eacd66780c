package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/trace"
)

// windowFingerprint hashes every chapter's per-window canonical partial
// encodings in (chapter, window index) order. Computed BEFORE any report
// render: rendering reads wait-state totals, which settles the lazily
// paired queues and legitimately changes later canonical bytes.
func windowFingerprint(t *testing.T, rep *report.Report) (string, int) {
	t.Helper()
	h := sha256.New()
	var buf []byte
	windows := 0
	for _, ch := range rep.Chapters {
		if ch.Windows == nil {
			t.Fatal("chapter carries no windowed series")
		}
		for _, idx := range ch.Windows.Indices() {
			var ib [8]byte
			for i := 0; i < 8; i++ {
				ib[i] = byte(uint64(idx) >> (8 * i))
			}
			h.Write(ib[:])
			buf = ch.Windows.WindowPartial(idx).AppendCanonical(buf[:0])
			h.Write(buf)
			windows++
		}
	}
	return hex.EncodeToString(h.Sum(nil)), windows
}

// TestWindowSeriesMatrix is the PR10 golden matrix: the same two
// applications are profiled with tumbling 10ms windows across every
// transport topology (flat, two-tier, three-tier tree), every pack wire
// format, and with replica parallelism off and at 4 replicas. Within
// each (topology, format) cell the serial and the replicated run must
// produce byte-identical per-window series fingerprints, and within each
// format every topology must match the flat reference — a window's
// content is a property of the event stream, not of how it traveled or
// who folded it.
func TestWindowSeriesMatrix(t *testing.T) {
	p := Tera100()
	ws := treeTestWorkloads(t)

	type cell struct {
		name   string
		levels int
		pack   int
	}
	cells := []cell{
		{"flat-v1", 1, trace.PackV1},
		{"flat-v2", 1, trace.PackV2},
		{"flat-v3", 1, trace.PackV3},
		{"tree-L2-v1", 2, trace.PackV1},
		{"tree-L2-v2", 2, trace.PackV2},
		{"tree-L2-v3", 2, trace.PackV3},
		{"tree-L3-v1", 3, trace.PackV1},
		{"tree-L3-v2", 3, trace.PackV2},
		{"tree-L3-v3", 3, trace.PackV3},
	}
	// flatGolden[pack] is the flat serial run's fingerprint, the reference
	// every topology of that wire format must reproduce. (Formats differ
	// from each other: pack boundaries perturb the application's modeled
	// timing slightly, so windows legitimately hold different events.)
	flatGolden := map[int]string{}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var serial string
			for _, replicas := range []int{0, 4} {
				opts := treeTestOpts()
				opts.PackVersion = c.pack
				opts.TreeLevels = c.levels
				opts.TreeFanin = 2
				opts.TreeFlushPacks = 4
				opts.WindowNs = (10 * time.Millisecond).Nanoseconds()
				opts.Replicas = replicas
				if replicas > 0 {
					opts.Workers = replicas
				}
				rep, _, err := ProfileRunStats(p, ws, opts)
				if err != nil {
					t.Fatal(err)
				}
				fp, windows := windowFingerprint(t, rep)
				if windows < 2 {
					t.Fatalf("replicas=%d: only %d populated windows", replicas, windows)
				}
				if replicas == 0 {
					serial = fp
					continue
				}
				if fp != serial {
					t.Errorf("replicas=%d window series %s != serial %s: parallelism changed window content",
						replicas, fp[:12], serial[:12])
				}
			}
			if c.levels == 1 {
				flatGolden[c.pack] = serial
			} else if want := flatGolden[c.pack]; want != "" && serial != want {
				t.Errorf("window series %s != flat reference %s: the tree changed window content",
					serial[:12], want[:12])
			}
		})
	}
}
