package bench

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/exp"
	"repro/internal/nas"
	"repro/internal/trace"
)

// simIters is the iteration count of both simulated applications.
const simIters = 10

// simWorkloads builds the two applications sim_profile runs together.
func simWorkloads() ([]*nas.Workload, error) {
	cg, err := nas.CG(nas.ClassA, 64, simIters)
	if err != nil {
		return nil, err
	}
	lu, err := nas.LU(nas.ClassA, 64, simIters)
	if err != nil {
		return nil, err
	}
	return []*nas.Workload{cg, lu}, nil
}

// simOptions is the analysis sim_profile asks for: pack v1, so every
// event takes the blackboard's knowledge-source path.
var simOptions = exp.ProfileOptions{WaitState: true, Sizes: true, Callsites: true, PackVersion: trace.PackV1}

// simInstance is the whole path in simulation: instrumented ranks,
// recorder and pack encode, vmpi streams over the simulated network,
// and the blackboard analysis, then the rendered report. It has no
// generated input: the discrete-event simulation is deterministic, so
// the workload is the same for every seed.
type simInstance struct {
	// generated is the number of events the instrumented ranks record,
	// counted by a capture of the same simulation with no analysis.
	generated int64
	// hash is the first pass's exp.ProfileFingerprint; every later pass
	// must reproduce it.
	hash string
	buf  bytes.Buffer
}

// fingerprint has one key for every seed: the workload does not depend
// on it.
func (w *simInstance) fingerprint() (string, string) { return "sim", w.hash }

func setupSim() (instance, error) {
	apps, err := simWorkloads()
	if err != nil {
		return nil, err
	}
	cp, err := exp.CaptureRun(exp.Tera100(), apps, simOptions)
	if err != nil {
		return nil, fmt.Errorf("bench: capture run: %w", err)
	}
	return &simInstance{generated: cp.Events}, nil
}

func (w *simInstance) close() {}

func (w *simInstance) extras() map[string]Value { return nil }

// run is one pass: profile, render. The latency sample is the batch
// form of event→query: from the call to the rendered report.
func (w *simInstance) run(tr *Tracer, parent SpanRef, id int) (unit, error) {
	var u unit
	apps, err := simWorkloads()
	if err != nil {
		return u, err
	}
	u.attempted = 3
	t0 := time.Now()
	sp := tr.Begin(parent, "exp.ProfileRunStats", id)
	rep, stats, err := exp.ProfileRunStats(exp.Tera100(), apps, simOptions)
	sp.End()
	if err != nil {
		u.failed++
		return u, fmt.Errorf("bench: profile run: %w", err)
	}
	w.buf.Reset()
	sp = tr.Begin(parent, "report.Report.Render", id)
	err = rep.Render(&w.buf)
	sp.End()
	if err != nil {
		u.failed++
		return u, fmt.Errorf("bench: render: %w", err)
	}
	u.latencies = append(u.latencies, time.Since(t0))
	u.events = stats.AnalyzedEvents
	u.wireBytes = stats.RootIngestBytes
	// Conservation: every recorded event was analyzed, and every pass
	// produces the same profile.
	fp, err := exp.ProfileFingerprint(rep)
	if err != nil {
		u.failed++
		return u, err
	}
	if w.hash == "" {
		w.hash = fp
		if err := checkFingerprint(w.fingerprint()); err != nil {
			u.failed++
			return u, err
		}
	}
	if fp != w.hash || u.events != w.generated {
		u.failed++
		return u, fmt.Errorf("bench: sim pass analyzed %d of %d recorded events, fingerprint %s, first pass %s", u.events, w.generated, fp[:12], w.hash[:12])
	}
	return u, nil
}
