package exp

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/blackboard"
	"repro/internal/otf2lite"
	"repro/internal/report"
	"repro/internal/trace"
)

// ReplayArchive analyses an otf2lite archive post-mortem: the classical
// tool work-flow, kept as an interoperability path for what the IO proxy
// (§VI) exports. The level is set up by the code ProfileRun uses and fed
// v1 packs on the board, so an archive of a whole run replays to the
// online chapter ("streamed analysis is very close to post-mortem
// analysis"). The chapter is named after the file less its .o2l extension
// and its wall time is the last event's end. Of opts only Workers and the
// module selection apply; options that shape a live coupling are refused.
func ReplayArchive(path string, opts ProfileOptions) (*report.Report, error) {
	if opts.Export != nil || opts.Telemetry || opts.Adaptive || opts.Replicas > 0 || opts.TreeLevels > 1 || opts.WindowNs > 0 {
		return nil, fmt.Errorf("exp: an archive replay takes only the module selection and Workers")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	// First pass: the definitions only, to size the level.
	arch, err := otf2lite.Read(f, nil)
	if err != nil {
		return nil, err
	}
	procs := 0
	for _, r := range arch.Ranks {
		procs = max(procs, int(r)+1)
	}
	if procs < 1 {
		return nil, fmt.Errorf("exp: archive %s defines no locations", path)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bb := blackboard.New(blackboard.Config{Workers: workers})
	defer bb.Close()
	disp, err := analysis.NewDispatcher(bb)
	if err != nil {
		return nil, err
	}
	lv, err := addLevel(disp, 0, strings.TrimSuffix(filepath.Base(path), ".o2l"), procs, opts, nil)
	if err != nil {
		return nil, err
	}

	// Second pass: the events, through the pack path a v1 stream takes.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	builder := trace.NewPackBuilder(0, -1, trace.MinRecordSize, 1<<20)
	var end int64
	if _, err := otf2lite.Read(f, func(e *trace.Event) {
		end = max(end, e.TEnd)
		if builder.Add(e) {
			lv.pipe.PostPack(builder.Take())
		}
	}); err != nil {
		return nil, err
	}
	if buf := builder.Take(); buf != nil {
		lv.pipe.PostPack(buf)
	}
	bb.Drain()
	lv.pipe.Settle()
	lv.ch.WallTime = time.Duration(end)
	return &report.Report{Title: "post-mortem replay of " + path, Chapters: []*report.Chapter{lv.ch}}, nil
}
