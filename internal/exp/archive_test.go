package exp

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/nas"
	"repro/internal/serviced"
	"repro/internal/trace"
	"repro/internal/wire"
)

// archiveTestWorkloads builds the named class A workloads at 16 ranks, two
// timesteps each.
func archiveTestWorkloads(t testing.TB, names ...string) []*nas.Workload {
	t.Helper()
	var ws []*nas.Workload
	for _, n := range names {
		w, err := nas.ByName(n, nas.ClassA, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// exportRun profiles ws with opts and returns the report and the archive
// the run recorded.
func exportRun(t testing.TB, ws []*nas.Workload, opts ProfileOptions) (string, []byte) {
	t.Helper()
	var archive bytes.Buffer
	opts.Export = &archive
	rep, err := ProfileRun(Tera100(), ws, opts)
	if err != nil {
		t.Fatal(err)
	}
	return renderBody(t, rep), archive.Bytes()
}

// trackerLine matches the window trackers' arrival-side lines: they read
// the analyzer's clock at fold time, which an archive does not record.
var trackerLine = regexp.MustCompile(`(?m)^  (event-to-report lag|worst window completeness): .*\n`)

// TestReplayArchiveMatchesProfileRun holds the post-mortem path to the
// online one: the archive a run exported replays in a daemon session
// (serviced.Daemon.Replay, what profiler -trace runs) to the run's report
// byte for byte, but for the title and the trackers' arrival-side lines,
// over pack v1 and v3, one and two applications, with and without 10 ms
// windows and with replicas off and on. The replay takes nothing but the
// archive: sizes, modules, labels and windows come from its Register frame.
func TestReplayArchiveMatchesProfileRun(t *testing.T) {
	for _, set := range []struct {
		apps     []string
		versions []int
	}{
		{[]string{"LU"}, []int{trace.PackV1}},
		{[]string{"CG"}, []int{trace.PackV3}},
		{[]string{"LU", "CG"}, []int{trace.PackV1, trace.PackV3}},
	} {
		ws := archiveTestWorkloads(t, set.apps...)
		var names []string
		for _, w := range ws {
			names = append(names, w.Name)
		}
		t.Run(strings.Join(names, "+"), func(t *testing.T) {
			for _, v := range set.versions {
				for _, window := range []time.Duration{0, 10 * time.Millisecond} {
					for _, replicas := range []int{0, 2} {
						opts := ProfileOptions{Workers: 2, WaitState: true, Callsites: true, Sizes: true,
							TemporalWindowNs: time.Millisecond.Nanoseconds(), PackVersion: v,
							WindowNs: window.Nanoseconds(), Replicas: replicas}
						t.Run(fmt.Sprintf("v%d-window%v-replicas%d", v, window, replicas), func(t *testing.T) {
							online, archive := exportRun(t, ws, opts)
							rep, err := serviced.New(serviced.Options{}).Replay(bytes.NewReader(archive))
							if err != nil {
								t.Fatal(err)
							}
							replayed := renderBody(t, rep)
							if window > 0 && !strings.Contains(replayed, "Windowed series") {
								t.Fatalf("the replay lost the windows:\n%s", replayed)
							}
							// Context 0 (outside any labelled phase) is the only unlabelled one.
							if regexp.MustCompile(`ctx:[1-9]`).MatchString(replayed) || !strings.Contains(replayed, "Message-size distribution") {
								t.Fatalf("the replay lacks the call-site labels or the size distribution:\n%s", replayed)
							}
							want, got := trackerLine.ReplaceAllString(online, ""), trackerLine.ReplaceAllString(replayed, "")
							if got != want {
								t.Fatalf("replayed report differs from the online one\n--- online\n%s\n--- replayed\n%s", want, got)
							}
						})
					}
				}
			}
		})
	}
}

// renderBody renders rep without its title line.
func renderBody(t testing.TB, rep interface{ Render(io.Writer) error }) string {
	t.Helper()
	var b strings.Builder
	if err := rep.Render(&b); err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(b.String(), "\n")
	return body
}

// TestExportDeterministic exports the same run twice, with two board
// workers and with two replicas: the archives are byte-identical, because
// the tee records blocks in the order the simulated analyzers take them,
// which no host thread reorders.
func TestExportDeterministic(t *testing.T) {
	ws := archiveTestWorkloads(t, "LU", "CG")
	base := ProfileOptions{Workers: 2, WaitState: true, WindowNs: (10 * time.Millisecond).Nanoseconds()}
	replicas := base
	replicas.Replicas = 2
	for name, opts := range map[string]ProfileOptions{"workers2": base, "replicas2": replicas} {
		_, a := exportRun(t, ws, opts)
		_, b := exportRun(t, ws, opts)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two exports of one run differ (%d and %d bytes)", name, len(a), len(b))
		}
	}
}

// archiveOf frames an archive by hand: the head for one app of four ranks
// at pack format v, then the given packs from writer 0, then a close.
func archiveOf(t testing.TB, v int, packs ...[]byte) []byte {
	t.Helper()
	cp := &Capture{Title: "hand-made", PackVersion: v, Apps: []CaptureApp{{Name: "app", Procs: 4, AppID: 7}}}
	for _, pk := range packs {
		cp.Packs = append(cp.Packs, CapturedPack{Data: pk})
	}
	var b bytes.Buffer
	a, err := newArchiveWriter(&b, cp)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cp.Packs {
		if err := a.pack(p.Src, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.close(cp.CloseMeta()); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestReadArchiveMixedFormats reads an archive whose middle pack is v2
// between v1 ones, with a shed ledger: each pack is framed by its own
// length, so the reader steps over a v2 body by its encoded size, not by
// the fixed-record length its count would have in v1. A daemon session
// replaying it negotiates v2 and folds the v1 packs below that format too:
// every event in order, and the ledger into the completeness section.
func TestReadArchiveMixedFormats(t *testing.T) {
	var packs [][]byte
	total := 0
	for i, c := range []struct{ version, events int }{{trace.PackV1, 3}, {trace.PackV2, 5}, {trace.PackV1, 2}} {
		b, err := trace.NewBuilder(c.version, 7, int32(i), trace.MinRecordSize, 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < c.events; j++ {
			ev := trace.Event{Kind: trace.KindSend, Rank: int32(i), Peer: int32(i + 1), Size: 64, TStart: int64(total), TEnd: int64(total + 1)}
			b.Add(&ev)
			total++
		}
		packs = append(packs, b.Take())
	}
	packs = append(packs, trace.EncodeAuditPack(7, 0, []trace.AuditEntry{{Kind: trace.KindSend, Shed: 3, Kept: 5}}))
	archive := archiveOf(t, trace.PackV2, packs...)
	cp, err := readArchive(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Packs) != len(packs) || cp.Events != int64(total) {
		t.Fatalf("read %d packs, %d events; wrote %d, %d", len(cp.Packs), cp.Events, len(packs), total)
	}
	rep, err := serviced.New(serviced.Options{}).Replay(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	ch := rep.Chapters[0]
	if got := ch.Profiler.Events(); got != int64(total) {
		t.Fatalf("replayed %d of %d events", got, total)
	}
	if st := ch.Completeness.Stat(trace.KindSend); st.Shed != 3 || st.Kept != 5 {
		t.Fatalf("shed ledger %+v", st)
	}
}

// TestReadArchiveRejectsGarbage refuses what no writer writes: bytes that
// are no frames, a frame out of the session order, a pack whose header is
// garbage, of an unregistered app or above the archive's format, a truncated
// archive and frames after the close. A well-formed shed ledger is no event
// pack: it folds into the completeness ledger, never as an event.
func TestReadArchiveRejectsGarbage(t *testing.T) {
	v1, err := trace.NewBuilder(trace.PackV1, 7, 0, trace.MinRecordSize, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	ev := trace.Event{Kind: trace.KindBarrier}
	v1.Add(&ev)
	good := v1.Take()
	foreign := append([]byte(nil), good...)
	foreign[4] = 9 // app id 9
	v3, err := trace.NewBuilder(trace.PackV3, 7, 0, trace.MinRecordSize, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	v3.Add(&ev)
	ok := archiveOf(t, trace.PackV1, good)
	var hello bytes.Buffer
	wire.WriteFrame(&hello, wire.TypeHello, wire.EncodeHello(wire.Hello{Proto: wire.ProtoVersion, MaxFormat: trace.PackV1}))
	for name, b := range map[string][]byte{
		"no frames":     []byte{1, 2, 3, 4, 5},
		"hello only":    hello.Bytes(),
		"no hello":      ok[hello.Len():],
		"garbage pack":  archiveOf(t, trace.PackV1, []byte{1, 2, 3, 4, 5}),
		"foreign app":   archiveOf(t, trace.PackV1, foreign),
		"format above":  archiveOf(t, trace.PackV1, v3.Take()),
		"truncated":     ok[:len(ok)-3],
		"after close":   append(append([]byte(nil), ok...), ok[:hello.Len()]...),
		"double hellos": append(append([]byte(nil), hello.Bytes()...), ok...),
	} {
		if _, err := readArchive(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	audit := trace.EncodeAuditPack(7, 0, []trace.AuditEntry{{Kind: trace.KindSend, Shed: 3, Kept: 5}})
	cp, err := readArchive(bytes.NewReader(archiveOf(t, trace.PackV1, audit)))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cp.analyse(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Chapters[0].Profiler.Events(); n != 0 || cp.Events != 0 {
		t.Fatalf("a shed ledger read as %d events (%d folded)", cp.Events, n)
	}
}

// FuzzReadArchive feeds bytes to the archive reader and, when they parse,
// the capture to the simulator's fold: neither may panic or hang. Seeded
// from small exported runs, v1 and v3, with every module and windows on.
//
// One shape is stepped over rather than replayed, a known open bound of
// the register frame that a daemon shares: applications whose dense
// topology matrices would take hundreds of megabytes (24·N² bytes each).
// The reader itself refuses windows overlapping more than
// trace.MaxWindowOverlap-fold.
func FuzzReadArchive(f *testing.F) {
	w, err := nas.ByName("CG", nas.ClassA, 4, 1)
	if err != nil {
		f.Fatal(err)
	}
	opts := ProfileOptions{Workers: 1, WaitState: true, Callsites: true, Sizes: true, PackBytes: 4096,
		TemporalWindowNs: time.Millisecond.Nanoseconds(), WindowNs: (5 * time.Millisecond).Nanoseconds()}
	for _, v := range []int{trace.PackV1, trace.PackV3} {
		opts.PackVersion = v
		_, archive := exportRun(f, []*nas.Workload{w}, opts)
		f.Add(archive)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cp, err := readArchive(bytes.NewReader(b))
		if err != nil {
			return
		}
		procs := 0
		for _, a := range cp.Apps {
			procs += a.Procs
		}
		if procs > 256 {
			return
		}
		cp.analyse(1)
	})
}
