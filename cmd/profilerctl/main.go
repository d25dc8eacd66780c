// Command profilerctl is the profiling daemon's client: it replays a
// simulated instrumented run against a profilerd over TCP and prints the
// daemon's report, or queries the daemon's status.
//
// Replay runs the named applications through the deterministic simulator
// with the analysis engine replaced by a capture tee, then streams the
// captured packs through a daemon session with (*exp.Capture).Replay —
// Register, Pack frames under the daemon's credit window, periodic Diff
// polls, Close — over the client SDK, which links no simulator:
//
//	profilerctl -addr 127.0.0.1:7101 -apps CG.A@16
//	profilerctl -addr 127.0.0.1:7101 -apps LU.A@16,CG.A@16 -waitstate
//
// Status fetches the daemon's machine-readable state:
//
//	profilerctl -addr 127.0.0.1:7101 -status
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/cliutil"
	"repro/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("profilerctl: ")
	var (
		addrFlag     = flag.String("addr", "127.0.0.1:7101", "daemon TCP address")
		statusFlag   = flag.Bool("status", false, "print the daemon's status JSON instead of replaying a run")
		appsFlag     = flag.String("apps", "CG.A@16", "applications: NAME.CLASS@PROCS[,...]")
		itersFlag    = flag.Int("iters", 4, "timesteps per application (0 = official counts)")
		platformFlag = flag.String("platform", "tera100", "platform model (tera100 or curie)")
		formatFlag   = flag.Int("format", 0, "pack wire format: 1 (fixed records), 2 (delta+varint) or 3 (stream dictionary); 0 = 1")
		waitFlag     = flag.Bool("waitstate", false, "enable the late-sender wait-state analysis")
		temporalFlag = flag.Duration("temporal", 0, "temporal-map bucket width in virtual time (0 = off)")
		sitesFlag    = flag.Bool("callsites", false, "enable the per-call-site breakdown")
		sizesFlag    = flag.Bool("sizes", false, "enable the message-size distribution")
		diffFlag     = flag.Int("diff-every", 0, "poll the Snapshot/Diff query API every N packs and verify the replayed cursor state against a full snapshot (0 = off)")
		windowFlag   = flag.Duration("window", 0, "windowed analysis: window width in virtual time (0 = off)")
		slideFlag    = flag.Duration("window-slide", 0, "sliding-window stride in virtual time (0 = tumbling)")
		graceFlag    = flag.Duration("window-grace", 0, "lateness grace before an event counts against its window's completeness")
	)
	flag.Parse()

	if *statusFlag {
		c, err := client.Dial(*addrFlag, 0)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Shutdown()
		raw, err := c.Stats()
		if err != nil {
			log.Fatal(err)
		}
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, raw, "", "  "); err != nil {
			log.Fatal(err)
		}
		pretty.WriteByte('\n')
		os.Stdout.Write(pretty.Bytes())
		return
	}

	format, err := cliutil.ResolvePackFormat(*formatFlag)
	if err != nil {
		fatalUsage(err)
	}
	platform, err := exp.PlatformByName(*platformFlag)
	if err != nil {
		fatalUsage(err)
	}
	workloads, err := exp.Workloads(*appsFlag, *itersFlag)
	if err != nil {
		fatalUsage(err)
	}

	start := time.Now()
	cp, err := exp.CaptureRun(platform, workloads, exp.ProfileOptions{
		WaitState:        *waitFlag,
		TemporalWindowNs: temporalFlag.Nanoseconds(),
		Callsites:        *sitesFlag,
		Sizes:            *sizesFlag,
		PackVersion:      format,
		WindowNs:         windowFlag.Nanoseconds(),
		WindowSlideNs:    slideFlag.Nanoseconds(),
		WindowGraceNs:    graceFlag.Nanoseconds(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "profilerctl: captured %d events in %d packs (pack v%d) in %.2fs\n",
		cp.Events, len(cp.Packs), cp.PackVersion, time.Since(start).Seconds())

	c, err := client.Dial(*addrFlag, format)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Shutdown()
	rep, err := cp.Replay(c, *diffFlag)
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.WriteString(rep.Rendered)
	fmt.Fprintf(os.Stderr, "profilerctl: session %d: %d events analysed, %d packs, %d shed (max admission level %d)\n",
		rep.Session, rep.Events, rep.Packs, rep.Shed, rep.MaxLevel)
	if rep.Windows > 0 {
		fmt.Fprintf(os.Stderr, "profilerctl: session %d: %d analysis windows sealed, %d late events\n",
			rep.Session, rep.Windows, rep.LateEvents)
	}
}

// fatalUsage exits non-zero on a bad flag or flag combination, with a
// one-line pointer at the flag help.
func fatalUsage(err error) {
	log.Fatalf("%v (run with -h for usage)", err)
}
