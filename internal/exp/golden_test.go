package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/blackboard"
	"repro/internal/nas"
	"repro/internal/report"
	"repro/internal/trace"
)

// TestSweepTablesGolden pins what every coupled experiment prints, on small
// fixed grids, to the bytes it printed at d7fb1da (the commit before the
// six hand-written coupled runs became one harness). Virtual time, pack
// boundaries and every counter of a run follow from the order of its
// simulator calls, so a harness that reorders one shows up here as a
// different table. Each table is followed by its points at full precision:
// the tables round to the millisecond.
func TestSweepTablesGolden(t *testing.T) {
	p := Tera100()
	sp, err := nas.SP(nas.ClassC, 16, 60)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	for name, c := range map[string]struct {
		want  string
		table func(*bytes.Buffer) error
	}{
		"stream": {"45351b02415e02f626218754c6729e2a95180c3c2eea8ffd6e12f42f5254f1b4", func(buf *bytes.Buffer) error {
			pts, err := StreamSweepJ(p, []int{16, 64}, []int{1, 4, 32}, 8<<20, 1<<20, 1)
			WriteStreamTable(buf, pts)
			fmt.Fprintf(buf, "%+v\n", pts)
			return err
		}},
		"ratio-v1": {"8ed424d89a819e063868ee3fddabbe5abb4f0d0e080671b77016e77233103d9e", func(buf *bytes.Buffer) error {
			pts, err := RatioSweepJ(p, sp, []int{1, 4, 16}, 1, trace.PackV1)
			WriteOverheadTable(buf, "ratio sweep", pts)
			fmt.Fprintf(buf, "%+v\n", pts)
			return err
		}},
		"ratio-v3": {"91407608d8e66d77891c7a81d8b50caa6dcefcf89d8bde09f140d182b857ecc1", func(buf *bytes.Buffer) error {
			pts, err := RatioSweepJ(p, sp, []int{1, 4, 16}, 1, trace.PackV3)
			WriteOverheadTable(buf, "ratio sweep", pts)
			fmt.Fprintf(buf, "%+v\n", pts)
			return err
		}},
		"fault": {"57b313563f0038170a5d3019603b092fcdc66aefa77401d220cc08b4bd124052", func(buf *bytes.Buffer) error {
			pts, err := FaultSweepJ(p, sp, 8, []float64{0.25, 0.5}, 1, 0, 1)
			WriteFaultTable(buf, "fault sweep", pts)
			fmt.Fprintf(buf, "%+v\n", pts)
			return err
		}},
		"tree": {"277be751c66f6c6f07d69cb696bf337ea124476b92bdff835cf02e0174f2f10f", func(buf *bytes.Buffer) error {
			pts, err := TreeScalingSweep(p, treeTestWorkloads(t), treeTestOpts(), []TreeConfig{
				{Levels: 2, Fanin: 4, FlushPacks: 4},
				{Levels: 3, Fanin: 2, FlushPacks: 4},
			})
			WriteTreeTable(buf, pts)
			fmt.Fprintf(buf, "%+v\n", pts)
			return err
		}},
		"packed": {"17844d0f343adb4430a2394bf52d1ef13d9459c9b92a1336c3b6a3ceb3c4b04b", func(buf *bytes.Buffer) error {
			for _, v := range []int{trace.PackV1, trace.PackV2, trace.PackV3} {
				pt, err := StreamThroughputPacked(p, 16, 4, 1<<20, 1<<16, EventRecordSize, v)
				if err != nil {
					return err
				}
				fmt.Fprintf(buf, "%+v\n", pt)
			}
			return nil
		}},
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.table(&buf); err != nil {
				t.Fatal(err)
			}
			if got := sum(buf.Bytes()); got != c.want {
				t.Errorf("sha256 %s, want %s; the table now reads:\n%s", got, c.want, buf.String())
			}
		})
	}
}

// foldCapture analyzes a capture the way a daemon session does: the module
// selection the capture echoes, every pack through one fused ingest in
// arrival order, the run facts into the chapter heads.
func foldCapture(t *testing.T, cp *Capture) *report.Report {
	t.Helper()
	bb := blackboard.New(blackboard.Config{Workers: 1})
	defer bb.Close()
	disp, err := analysis.NewDispatcher(bb)
	if err != nil {
		t.Fatal(err)
	}
	fused := analysis.NewParallelFusedIngest(disp, 0, 0)
	rep := &report.Report{
		Title:      fmt.Sprintf("online profiling report (%s)", cp.PlatformName),
		StreamLoss: cp.Loss,
	}
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var pipes []*analysis.Pipeline
	for _, app := range cp.Apps {
		pipe, err := disp.AddApp(app.AppID, app.Name, app.Procs)
		check(err)
		ch := &report.Chapter{
			App: app.Name, Procs: app.Procs, WallTime: app.WallTime,
			Profiler: pipe.Profiler, Topology: pipe.Topology, Density: pipe.Density,
			Completeness: pipe.Completeness,
		}
		if cp.WaitState {
			ch.WaitState, err = pipe.EnableWaitState()
			check(err)
		}
		if cp.TemporalWindowNs > 0 {
			ch.Temporal, err = pipe.EnableTemporal(cp.TemporalWindowNs)
			check(err)
		}
		if cp.Callsites {
			ch.Callsites, err = pipe.EnableCallsites()
			check(err)
			for ctx, label := range cp.Labels {
				ch.Callsites.Label(ctx, label)
			}
		}
		if cp.Sizes {
			ch.Sizes, err = pipe.EnableSizes()
			check(err)
		}
		if cp.WindowNs > 0 {
			ch.Windows, err = pipe.EnableWindows(cp.WindowNs, cp.WindowSlideNs)
			check(err)
		}
		pipes = append(pipes, pipe)
		rep.Chapters = append(rep.Chapters, ch)
	}
	for _, pk := range cp.Packs {
		_, err := fused.Absorb(pk.Src, pk.Data)
		check(err)
	}
	bb.Drain()
	fused.Sync()
	for _, pipe := range pipes {
		pipe.Settle()
	}
	return rep
}

// TestCaptureRunMatchesProfileRun asserts the sentence in CaptureRun's doc
// comment in the package that makes it: a capture is the profiling run with
// the analysis taken out, so analyzing its packs afterwards gives the
// profile the live run gave, and its wall times, event count and loss rows
// are the live run's.
func TestCaptureRunMatchesProfileRun(t *testing.T) {
	p := Tera100()
	two := treeTestWorkloads(t)
	for _, ws := range [][]*nas.Workload{two[:1], two} {
		for _, version := range []int{trace.PackV1, trace.PackV3} {
			for _, windowNs := range []int64{0, (10 * time.Millisecond).Nanoseconds()} {
				name := fmt.Sprintf("apps=%d/v%d/window=%d", len(ws), version, windowNs)
				t.Run(name, func(t *testing.T) {
					opts := treeTestOpts()
					opts.PackVersion = version
					opts.WindowNs = windowNs
					live, stats, err := ProfileRunStats(p, ws, opts)
					if err != nil {
						t.Fatal(err)
					}
					cp, err := CaptureRun(p, ws, opts)
					if err != nil {
						t.Fatal(err)
					}
					folded := foldCapture(t, cp)
					if windowNs > 0 {
						// Before any render (see windowFingerprint).
						want, n := windowFingerprint(t, live)
						got, _ := windowFingerprint(t, folded)
						if n < 2 || got != want {
							t.Errorf("window series %s over %d windows, live run %s", got[:12], n, want[:12])
						}
						// Event-to-report lag is read off the live analyzer's
						// clock, which a capture does not carry.
						for _, ch := range live.Chapters {
							ch.WindowLag = nil
						}
					}
					want, err := ProfileFingerprint(live)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ProfileFingerprint(folded)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("captured packs fold to %s, the live run to %s", got[:12], want[:12])
					}
					if cp.Events != stats.AnalyzedEvents {
						t.Errorf("capture counts %d events, the live run analyzed %d", cp.Events, stats.AnalyzedEvents)
					}
					for i, ch := range live.Chapters {
						if cp.Apps[i].WallTime != ch.WallTime {
							t.Errorf("%s wall time %v, live run %v", ch.App, cp.Apps[i].WallTime, ch.WallTime)
						}
					}
					if !reflect.DeepEqual(cp.Loss, live.StreamLoss) {
						t.Errorf("loss rows differ: capture %+v, live run %+v", cp.Loss, live.StreamLoss)
					}
				})
			}
		}
	}
}
