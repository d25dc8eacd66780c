package exp

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// TestReplicaProfileMatrixMatchesSerial is the PR9 golden matrix: the
// same two applications are profiled with replica parallelism off and at
// 2, 4 and 8 replicas, across every pack wire format and transport
// topology (flat, one-tier tree, two-tier tree). Within each
// (format, topology) cell every replica count must produce the
// byte-identical masked-report fingerprint of the serial run — the
// replica layer may change how the profile is computed, never what it
// says. (In tree mode the leaves ship partials, so the fold KS idles;
// the cells still pin that enabling replicas there is harmless.)
func TestReplicaProfileMatrixMatchesSerial(t *testing.T) {
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
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var golden string
			var goldenEvents int64
			for _, replicas := range []int{0, 2, 4, 8} {
				opts := treeTestOpts()
				opts.PackVersion = c.pack
				opts.TreeLevels = c.levels
				opts.TreeFanin = 2
				opts.TreeFlushPacks = 4
				opts.Replicas = replicas
				if replicas > 0 {
					// Real parallelism on the board and the fused lanes.
					opts.Workers = replicas
				}
				rep, stats, err := ProfileRunStats(p, ws, opts)
				if err != nil {
					t.Fatal(err)
				}
				fp, err := ProfileFingerprint(rep)
				if err != nil {
					t.Fatal(err)
				}
				if replicas == 0 {
					golden, goldenEvents = fp, stats.AnalyzedEvents
					continue
				}
				if fp != golden {
					t.Errorf("replicas=%d fingerprint %s != serial %s: replica parallelism changed the profile",
						replicas, fp[:12], golden[:12])
				}
				if stats.AnalyzedEvents != goldenEvents {
					t.Errorf("replicas=%d analyzed %d events, serial %d", replicas, stats.AnalyzedEvents, goldenEvents)
				}
			}
			if goldenEvents == 0 {
				t.Fatal("no events analyzed")
			}
		})
	}
}

// TestReplicaExportIncompatible pins the options cross-check: replica
// mode removes the raw event flow the exporter taps.
func TestReplicaExportIncompatible(t *testing.T) {
	p := Tera100()
	ws := treeTestWorkloads(t)[:1]
	opts := treeTestOpts()
	opts.Replicas = 2
	opts.Export = func(string, *analysis.ExportModule) {}
	_, _, err := ProfileRunStats(p, ws, opts)
	if err == nil || !strings.Contains(err.Error(), "replica mode") {
		t.Fatalf("err = %v, want replica/export incompatibility", err)
	}
}
