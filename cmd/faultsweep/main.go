// Command faultsweep measures the online coupling under analyzer failure:
// a fraction of the analysis partition is crashed at chosen fractions of
// the healthy run time, and the sweep reports how the instrumented
// application degrades — overhead versus the fault-free coupling, stream
// failover/quarantine/drop counters, how many ranks fell back to local
// profiling, and what fraction of the measurement data still reached an
// analyzer.
//
// The paper's coupling uses back-pressure for adaptation, which turns a
// dead analyzer into an application hang; this sweep exercises the
// degraded modes (write deadline, endpoint failover, local-profile
// fallback) that keep the application running instead.
//
// Example:
//
//	faultsweep -bench SP.D -procs 256 -ratio 8 -failat 0.25,0.5,0.75 -kill 1
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/nas"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("faultsweep: ")
	var (
		benchFlag    = flag.String("bench", "SP.D", "benchmark (NAME.CLASS or EulerMHD)")
		procsFlag    = flag.Int("procs", 256, "application process count (snapped to the benchmark's constraint)")
		ratioFlag    = flag.Int("ratio", 8, "writer/reader ratio for the analysis partition")
		itersFlag    = flag.Int("iters", 12, "timesteps per run (0 = official NAS counts)")
		failatFlag   = flag.String("failat", "0.25,0.5,0.75", "crash times as fractions of the healthy run")
		killFlag     = flag.Int("kill", 1, "how many analyzer ranks crash (clamped to the partition size)")
		deadlineFlag = flag.Duration("deadline", exp.DefaultWriteDeadline, "stream write deadline before a stalled endpoint is quarantined")
		platformFlag = flag.String("platform", "tera100", "platform model (tera100 or curie)")
		jFlag        = flag.Int("j", 0, "parallel sweep workers (0 = all cores, 1 = serial); output is identical for any value")
	)
	flag.Parse()

	platform, err := exp.PlatformByName(*platformFlag)
	if err != nil {
		log.Fatal(err)
	}
	fracs, err := cliutil.ParseFloats(*failatFlag)
	if err != nil {
		log.Fatal(err)
	}
	specs, err := cliutil.ParseBenches(*benchFlag)
	if err != nil {
		log.Fatal(err)
	}
	if len(specs) != 1 {
		log.Fatalf("expected one benchmark, got %d", len(specs))
	}
	spec := specs[0]
	procs := nas.ValidProcs(spec.Kind, *procsFlag)
	w, err := nas.ByName(spec.Kind, nas.Class(spec.Class), procs, *itersFlag)
	if err != nil {
		log.Fatal(err)
	}

	points, err := exp.FaultSweepJ(platform, w, *ratioFlag, fracs, *killFlag, *deadlineFlag, *jFlag)
	if err != nil {
		log.Fatal(err)
	}
	analyzers := exp.Readers(w.Procs, *ratioFlag)
	exp.WriteFaultTable(os.Stdout,
		fmt.Sprintf("analyzer-failure sweep: %s procs=%d ratio=1:%d analyzers=%d kill=%d deadline=%s on %s",
			w.Name, w.Procs, *ratioFlag, analyzers, *killFlag,
			deadlineFlag.Round(time.Millisecond), platform.Name),
		points)
}
