package bench

import (
	"fmt"

	"repro/internal/serviced"
)

// Options selects one run.
type Options struct {
	// Workload is one of Workloads.
	Workload string
	// Seed generates the inputs: same seed, same packs.
	Seed int64
	// Seconds is the length of the measured phase.
	Seconds float64
}

// setupFor returns the named workload's set-up function. in, when
// non-nil, supplies the ingest workloads' inputs ready-made (the traced
// run sets several instances up on one corpus); an untraced run passes
// nil, so building them is part of its set-up time.
func setupFor(w WorkloadDef, seed int64, tr *Tracer, in *ingestInputs) func() (instance, error) {
	inputs := func() (*ingestInputs, error) {
		if in != nil {
			return in, nil
		}
		return buildIngestInputs(IngestCorpus, seed)
	}
	switch w.Name {
	case "fused_ingest":
		return func() (instance, error) {
			in, err := inputs()
			if err != nil {
				return nil, err
			}
			return setupFused(in), nil
		}
	case "daemon_ingest":
		return func() (instance, error) {
			in, err := inputs()
			if err != nil {
				return nil, err
			}
			return setupDaemon(in, tr, serviced.Options{})
		}
	case "daemon_live_query":
		return func() (instance, error) { return setupLive(seed, tr, LiveQuery, serviced.Options{}) }
	case "sim_profile":
		return setupSim
	}
	return nil
}

// Run measures one workload with tracing off and reports the end-to-end
// metrics.
func Run(o Options) (*Result, error) {
	w, ok := FindWorkload(o.Workload)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", o.Workload)
	}
	m, err := measure(o.Seconds, setupReps, 0, nil, setupFor(w, o.Seed, nil, nil))
	if err != nil {
		return nil, err
	}
	res := newResult(w, o.Seed, m)
	res.Metrics, res.Harness = endToEnd(w, m)
	for k, v := range m.extras {
		res.Harness[k] = v
	}
	return res, nil
}

// newResult fills in a measurement's counts and verdict.
func newResult(w WorkloadDef, seed int64, m *measurement) *Result {
	res := &Result{
		Workload:  w.Name,
		Seed:      seed,
		Attempted: m.attempted,
		Failed:    m.failed,
		Units:     len(m.samples),
		Errors:    m.errs,

		FingerprintKey: m.fpKey,
		Fingerprint:    m.fpHash,
	}
	for _, s := range m.samples {
		res.Samples += len(s.latRaw)
	}
	res.Correct = m.failed == 0 && len(m.samples) > 0
	return res
}

// add folds another measurement of the same run (the traced run makes
// several) into the result's counts and verdict.
func (res *Result) add(m *measurement) {
	res.Attempted += m.attempted
	res.Failed += m.failed
	res.Errors = append(res.Errors, m.errs...)
	res.Correct = res.Correct && m.failed == 0 && len(m.samples) > 0
}
