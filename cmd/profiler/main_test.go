package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/serviced"
)

// parseArgs runs parse on a fresh flag set, as main does on the command line.
func parseArgs(args ...string) (*config, error) {
	fs := flag.NewFlagSet("profiler", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parse(fs, args)
}

// TestParseEnforcesFlagTable holds parse to its table: every mode refuses
// a flag it does not take, every prerequisite row refuses its flag without
// the one it refines and accepts it with it.
func TestParseEnforcesFlagTable(t *testing.T) {
	refused := []struct {
		args []string
		want string
	}{
		// One flag each mode does not take.
		{[]string{"-fig", "17cg", "-apps", "CG.A@16"}, "fig mode takes no -apps"},
		{[]string{"-trace", "lu.pfl", "-apps", "CG.A@16"}, "trace mode takes no -apps"},
		{[]string{"-trace", "lu.pfl", "-daemon", "127.0.0.1:7101"}, "trace mode takes no -daemon"},
		{[]string{"-trace", "lu.pfl", "-waitstate"}, "trace mode takes no -waitstate"},
		{[]string{"-trace", "lu.pfl", "-workers", "2"}, "trace mode takes no -workers"},
		{[]string{"-daemon", "127.0.0.1:7101", "-telemetry"}, "daemon mode takes no -telemetry"},
		{[]string{"-daemon", "127.0.0.1:7101", "-out", "rep"}, "daemon mode takes no -out"},
		{[]string{"-diff-every", "4"}, "-diff-every needs -daemon"},
		// Every prerequisite row, its prerequisite missing.
		{[]string{"-tree-fanin", "4"}, "-tree-fanin needs a reduction tree"},
		{[]string{"-tree-levels", "1", "-tree-fanin", "4"}, "-tree-fanin needs a reduction tree"},
		{[]string{"-tree-flush", "4"}, "-tree-flush needs a reduction tree"},
		{[]string{"-window-slide", "5ms"}, "-window-slide needs -window"},
		{[]string{"-window", "0", "-window-grace", "1ms"}, "-window-grace needs -window"},
		{[]string{"-telemetry-period", "1ms"}, "-telemetry-period needs -telemetry"},
		{[]string{"-trace", "lu.pfl", "-diff-every", "4"}, "-diff-every needs -daemon"},
	}
	for _, c := range refused {
		if _, err := parseArgs(c.args...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
	accepted := []struct {
		args []string
		mode string
	}{
		{[]string{"-apps", "CG.A@16", "-tree-levels", "2", "-tree-fanin", "4", "-tree-flush", "2"}, "simulate"},
		{[]string{"-apps", "CG.A@16", "-export", "run.pfl", "-replicas", "2"}, "simulate"},
		{[]string{"-apps", "CG.A@16", "-window", "10ms", "-window-slide", "5ms", "-window-grace", "1ms"}, "simulate"},
		{[]string{"-apps", "CG.A@16", "-telemetry", "-telemetry-period", "1ms"}, "simulate"},
		{[]string{"-fig", "17cg"}, "fig"},
		{[]string{"-trace", "lu.pfl", "-out", "rep", "-latex", "rep.tex", "-json", "rep.json"}, "trace"},
		{[]string{"-daemon", "127.0.0.1:7101", "-apps", "CG.A@16", "-diff-every", "4", "-window", "10ms", "-window-slide", "5ms"}, "daemon"},
	}
	for _, c := range accepted {
		cfg, err := parseArgs(c.args...)
		if err != nil {
			t.Errorf("%v: %v", c.args, err)
		} else if cfg.mode != c.mode {
			t.Errorf("%v: mode %s, want %s", c.args, cfg.mode, c.mode)
		}
	}
}

// TestDaemonModeMatchesInProcess runs the -daemon path against a daemon
// on loopback with -diff-every set: the daemon's report is the in-process
// one byte for byte, and the Diff cursors the run polls converge on the
// final Snapshot (runDaemon fails otherwise).
func TestDaemonModeMatchesInProcess(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go serviced.New(serviced.Options{}).Serve(l)

	c, err := parseArgs("-daemon", l.Addr().String(), "-apps", "LU.A@16,CG.A@16", "-iters", "2",
		"-waitstate", "-callsites", "-sizes", "-temporal", "1ms", "-diff-every", "3")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := runDaemon(c, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	rep, err := exp.ProfileRun(c.platform, c.workloads, c.opts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := rep.Render(&want); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != want.String() {
		t.Fatalf("daemon report differs from the in-process one\n--- in-process\n%s\n--- daemon\n%s", want.String(), stdout.String())
	}
	if !strings.Contains(stderr.String(), "events analysed") {
		t.Fatalf("stderr lacks the session summary: %q", stderr.String())
	}
}

// trackerLine matches the window trackers' arrival-side lines: they read
// the analyzer's clock at fold time, which an archive does not record.
var trackerLine = regexp.MustCompile(`(?m)^  (event-to-report lag|worst window completeness): .*\n`)

// TestTraceModeReplaysExport runs -export F, then -trace F with -json: the
// replay prints the simulated run's report, its title and the trackers'
// arrival-side lines aside, and writes JSON that parses. A missing archive
// is an error.
func TestTraceModeReplaysExport(t *testing.T) {
	dir := t.TempDir()
	archive, js := filepath.Join(dir, "run.pfl"), filepath.Join(dir, "rep.json")
	body := func(args ...string) string {
		t.Helper()
		c, err := parseArgs(args...)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := runLocal(c, &out); err != nil {
			t.Fatal(err)
		}
		_, b, _ := strings.Cut(out.String(), "\n")
		return trackerLine.ReplaceAllString(b, "")
	}
	online := body("-apps", "LU.A@16,CG.A@16", "-iters", "2", "-waitstate", "-callsites", "-sizes",
		"-temporal", "1ms", "-window", "10ms", "-export", archive)
	if replayed := body("-trace", archive, "-json", js); replayed != online {
		t.Fatalf("the replay differs from the run\n--- run\n%s\n--- replay\n%s", online, replayed)
	}
	b, err := os.ReadFile(js)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) {
		t.Fatalf("-json wrote %d bytes that do not parse", len(b))
	}
	c, err := parseArgs("-trace", filepath.Join(dir, "missing.pfl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := runLocal(c, io.Discard); err == nil {
		t.Fatal("a missing archive replayed")
	}
}
