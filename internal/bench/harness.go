package bench

import (
	"fmt"
	"runtime"
	"time"
)

// Procs is the GOMAXPROCS the benchmark's numbers are defined for: one P
// for the load generator, one for the engine.
const Procs = 2

// DefaultSeconds is the measured phase's default length, the run_seconds
// of BENCHMARK.json.
const DefaultSeconds = 26

// setupReps is how many times a run performs its set-up; setup_s is the
// median, so one slow cold start does not decide it.
const setupReps = 3

// unit is one measured pass (closed loop) or segment (open loop).
type unit struct {
	// events is the number of events the engine analyzed.
	events int64
	// latencies are the unit's event→query samples, raw.
	latencies []time.Duration
	// attempted and failed count operations (packs, queries, checks).
	attempted, failed int64
	// wireBytes is the byte count that crossed the ingest boundary, and
	// wireEvents the events those bytes carried (0 = events).
	wireBytes, wireEvents int64
	// wall, cpu and mallocs, when wall is non-zero, replace the
	// harness's own stopwatch around run: an open-loop segment times only
	// its paced part, not its preload.
	wall, cpu time.Duration
	mallocs   uint64
}

// instance is one set-up workload, ready to run units.
type instance interface {
	// run executes one pass or segment. Spans hang under parent; id is
	// the pass/segment number.
	run(tr *Tracer, parent SpanRef, id int) (unit, error)
	// extras reports instance-level readings (generator lateness, daemon
	// counters) once the units are done; nil when there are none.
	extras() map[string]Value
	// close releases what setup started (listeners, daemons).
	close()
}

// fingerprinter is implemented by instances whose result content has a
// checked-in fingerprint (testdata/fingerprints.json).
type fingerprinter interface {
	// fingerprint returns the file's key for this run and the hash the
	// run produced.
	fingerprint() (key, hash string)
}

// sample is one unit's measurements.
type sample struct {
	events       int64
	wireBytes    int64
	wireEvents   int64
	raw, norm    float64 // wall seconds
	rawCPU, cpu  float64 // CPU seconds
	refMs        float64 // mean of the bracketing reference runs
	latRaw, latN []float64
}

// measurement is everything the measured phase of a run produced.
type measurement struct {
	setupS  []float64
	samples []sample
	// mallocs spans the whole measured phase; unitMallocs sums what the
	// units counted themselves (open loop).
	mallocs     uint64
	unitMallocs uint64
	attempted   int64
	failed      int64
	errs        []string
	extras      map[string]Value
	// fpKey and fpHash are the run's content fingerprint, when it has one.
	fpKey, fpHash string
}

// measure performs the set-up setups times (keeping the last instance),
// then runs units back to back for the given number of seconds, each
// bracketed by reference-kernel runs.
//
// Units are numbered from idBase, so spans of different measurements in
// one span log stay apart.
func measure(seconds float64, setups, idBase int, tr *Tracer, setup func() (instance, error)) (*measurement, error) {
	m := &measurement{}
	var inst instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = setup(); err != nil {
			return nil, fmt.Errorf("bench: set-up: %w", err)
		}
		// One untimed warm-up pass: caches fill, pools and maps reach
		// their steady size, lazy initialisation finishes.
		u, err := inst.run(nil, Root, -1)
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("bench: warm-up: %w", err)
		}
		if u.failed > 0 {
			inst.close()
			return nil, fmt.Errorf("bench: warm-up: %d of %d operations failed", u.failed, u.attempted)
		}
		runtime.GC()
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	ref := tr.refKernel(Root, idBase)
	for id := idBase; ; id++ {
		sp := tr.Begin(Root, "pass", id)
		cpu0, t0 := CPUTime(), time.Now()
		u, err := inst.run(tr, sp, id)
		raw, rawCPU := time.Since(t0), CPUTime()-cpu0
		sp.End()
		if u.wall > 0 {
			raw, rawCPU = u.wall, u.cpu
			m.unitMallocs += u.mallocs
		}
		refAfter := tr.refKernel(Root, id)
		m.attempted += u.attempted
		m.failed += u.failed
		if err != nil {
			// A failed unit is a failed operation; it contributes no
			// timing.
			m.failed++
			m.attempted++
			m.errs = append(m.errs, err.Error())
			if len(m.errs) >= 3 {
				break
			}
		} else {
			// Wall time is normalised by the reference's wall time. CPU
			// time, and the latency samples — each too short to contain
			// its share of the time the hypervisor took away — by the
			// reference's CPU time.
			s := sample{
				events:     u.events,
				wireBytes:  u.wireBytes,
				wireEvents: u.wireEvents,
				raw:        raw.Seconds(),
				norm:       Normalise(raw, ref.Wall, refAfter.Wall),
				rawCPU:     rawCPU.Seconds(),
				cpu:        Normalise(rawCPU, ref.CPU, refAfter.CPU),
				refMs:      (ref.Wall.Seconds() + refAfter.Wall.Seconds()) / 2 * 1e3,
			}
			for _, l := range u.latencies {
				s.latRaw = append(s.latRaw, l.Seconds()*1e3)
				s.latN = append(s.latN, Normalise(l, ref.CPU, refAfter.CPU)*1e3)
			}
			m.samples = append(m.samples, s)
		}
		ref = refAfter
		if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	m.extras = inst.extras()
	if fp, ok := inst.(fingerprinter); ok {
		m.fpKey, m.fpHash = fp.fingerprint()
	}
	return m, nil
}
