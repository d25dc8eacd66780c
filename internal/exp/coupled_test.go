package exp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/vmpi"
)

// TestCoupledRunCauseBeatsConsequence: an analyzer whose block handler
// fails on its first block returns from its main with the stream open, so
// its writers stall on credits for good and the simulator reports a
// deadlock. The run's error is the handler's — the cause — not that report.
func TestCoupledRunCauseBeatsConsequence(t *testing.T) {
	boom := errors.New("boom")
	stalled := func() *coupledRun {
		run := &coupledRun{blockSize: 1 << 16}
		// Far more blocks than a stream has credits.
		run.rawWriters(4, nil, 0, func(_ *vmpi.Session, st *vmpi.Stream) error {
			for i := 0; i < 256; i++ {
				if err := st.Write(nil, 1<<16); err != nil {
					return err
				}
			}
			return nil
		})
		run.analyzer(1, nil, false, func(*mpi.Rank, *vmpi.Session) (reader, error) {
			return reader{onBlock: func(*vmpi.Block) error { return boom }}, nil
		})
		run.build(Tera100(), 1)
		return run
	}
	if err := stalled().world.Run(); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("simulation error = %v, want the writers deadlocked behind the failed analyzer", err)
	}
	if err := stalled().run(); err != boom {
		t.Fatalf("run error = %v, want the block handler's", err)
	}
}

// TestBadPackVersionIsAnError: every entry point that takes a pack version
// refuses one that names no format, before it simulates anything under it
// — it used to reach the recorder, which panicked inside the simulator.
func TestBadPackVersionIsAnError(t *testing.T) {
	p := Tera100()
	w, err := nas.SP(nas.ClassC, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	ws := []*nas.Workload{w}
	for _, v := range []int{9, -1} {
		want := fmt.Sprintf("unknown pack version %d", v)
		for name, call := range map[string]func() error{
			"MeasureOverheadAvg": func() error {
				_, err := MeasureOverheadAvg(p, w, ToolOnline, 1, 1, v)
				return err
			},
			"Fig16SweepJ": func() error {
				_, err := Fig16SweepJ(Curie(), []int{16}, 2, 1, v)
				return err
			},
			"RatioSweepJ": func() error {
				_, err := RatioSweepJ(p, w, []int{1}, 1, v)
				return err
			},
			"StreamThroughputPacked": func() error {
				_, err := StreamThroughputPacked(p, 4, 1, 1<<16, 1<<14, EventRecordSize, v)
				return err
			},
			"ProfileRunStats": func() error {
				_, _, err := ProfileRunStats(p, ws, ProfileOptions{PackVersion: v})
				return err
			},
			"CaptureRun": func() error {
				_, err := CaptureRun(p, ws, ProfileOptions{PackVersion: v})
				return err
			},
		} {
			if err := call(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s(pack version %d) = %v, want %q", name, v, err, want)
			}
		}
	}
	// 0 still means v1.
	if pt, err := MeasureOverheadAvg(p, w, ToolOnline, 1, 1, 0); err != nil || pt.DataBytes != pt.LogicalBytes {
		t.Errorf("pack version 0: %+v, %v, want a v1 run", pt, err)
	}
}
