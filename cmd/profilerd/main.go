// Command profilerd is the profiling daemon: the paper's "truly machine
// wide server" as a long-running process. It listens on a TCP address,
// hosts concurrent profiling sessions speaking the wire frame protocol,
// and keeps a cross-session history of every closed session (the
// cross-job centralisation of profiling metrics, shown by
// `profilerctl -status`). It runs no simulation itself: clients simulate
// on their own platform model and stream the packs.
//
//	profilerd -addr 127.0.0.1:7101
//	profilerd -addr 127.0.0.1:7101 -budget 4M   # per-session ingest quota
//
// Clients are cmd/profilerctl (or anything built on internal/client).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"

	"repro/internal/cliutil"
	"repro/internal/serviced"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("profilerd: ")
	var (
		addrFlag    = flag.String("addr", "127.0.0.1:7101", "TCP listen address")
		maxFlag     = flag.Int("max-sessions", serviced.DefaultMaxSessions, "concurrently live session cap")
		budgetFlag  = flag.String("budget", "", "per-session ingest quota (e.g. 64M); past it the session's adaptive controller escalates and sheds (empty = unlimited)")
		windowFlag  = flag.Int("window", serviced.DefaultWindow, "level-0 credit window in pack frames")
		backlogFlag = flag.String("backlog-high", "", "adaptive controller backlog-high threshold (e.g. 256K; empty = adapt default)")
		workersFlag = flag.Int("workers", 1, "per-session ingest worker-pool size (>1 folds packs on lock-free replica lanes, merged at every seal)")
		verboseFlag = flag.Bool("v", false, "log connection-level diagnostics")
	)
	flag.Parse()

	opts := serviced.Options{
		MaxSessions: *maxFlag,
		Window:      *windowFlag,
		Workers:     *workersFlag,
	}
	if *budgetFlag != "" {
		b, err := cliutil.ParseBytes(*budgetFlag)
		if err != nil {
			fatalUsage(err)
		}
		opts.SessionBudgetBytes = b
	}
	if *backlogFlag != "" {
		b, err := cliutil.ParseBytes(*backlogFlag)
		if err != nil {
			fatalUsage(err)
		}
		opts.BacklogHighBytes = b
	}
	if *verboseFlag {
		opts.Logf = log.Printf
	}

	l, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "profilerd: serving on %s (%d session slots, %d ingest workers)\n",
		l.Addr(), *maxFlag, *workersFlag)
	if err := serviced.New(opts).Serve(l); err != nil {
		log.Fatal(err)
	}
}

// fatalUsage exits non-zero on a bad flag or flag combination, with a
// one-line pointer at the flag help.
func fatalUsage(err error) {
	log.Fatalf("%v (run with -h for usage)", err)
}
