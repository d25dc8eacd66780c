package exp

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/nas"
)

// TestReplayArchiveMatchesProfileRun holds the post-mortem path to the
// online one: an archive of a whole run's events, replayed with the same
// module selection, renders the online report byte for byte but for the
// title line. Both levels come from addLevel, so call-site labels and the
// size distribution cannot go missing from a replay again.
func TestReplayArchiveMatchesProfileRun(t *testing.T) {
	opts := ProfileOptions{
		Workers:          2,
		WaitState:        true,
		Callsites:        true,
		Sizes:            true,
		TemporalWindowNs: time.Millisecond.Nanoseconds(),
	}
	for _, app := range []struct {
		build func(nas.Class, int, int) (*nas.Workload, error)
	}{{nas.LU}, {nas.CG}} {
		w, err := app.build(nas.ClassA, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.Name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), w.Name+".o2l")
			live := opts
			live.Export = func(_ string, m *analysis.ExportModule) {
				var buf bytes.Buffer
				if err := m.WriteArchive(&buf); err != nil {
					t.Error(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Error(err)
				}
			}
			online, err := ProfileRun(Tera100(), []*nas.Workload{w}, live)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := ReplayArchive(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, got := renderBody(t, online), renderBody(t, replayed)
			if got != want {
				t.Fatalf("replayed report differs from the online one\n--- online\n%s\n--- replayed\n%s", want, got)
			}
			// Context 0 (outside any labelled phase) is the only unlabelled one.
			if regexp.MustCompile(`ctx:[1-9]`).MatchString(got) || !strings.Contains(got, "Message-size distribution") {
				t.Errorf("replayed report lacks the call-site labels or the size distribution:\n%s", got)
			}
		})
	}
}

// renderBody renders rep without its title line.
func renderBody(t *testing.T, rep interface{ Render(io.Writer) error }) string {
	t.Helper()
	var b strings.Builder
	if err := rep.Render(&b); err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(b.String(), "\n")
	return body
}

// TestReplayArchiveRefuses covers the replay's refusals: an option that
// shapes a live coupling, a missing file and bytes that are no archive.
func TestReplayArchiveRefuses(t *testing.T) {
	junk := filepath.Join(t.TempDir(), "junk.o2l")
	if err := os.WriteFile(junk, []byte("not an archive"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		opts ProfileOptions
	}{
		{junk, ProfileOptions{WindowNs: time.Millisecond.Nanoseconds()}},
		{junk, ProfileOptions{Replicas: 2}},
		{filepath.Join(t.TempDir(), "missing.o2l"), ProfileOptions{}},
		{junk, ProfileOptions{}},
	} {
		if _, err := ReplayArchive(c.path, c.opts); err == nil {
			t.Errorf("ReplayArchive(%s, %+v) accepted", filepath.Base(c.path), c.opts)
		}
	}
}
