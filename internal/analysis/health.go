package analysis

import (
	"repro/internal/blackboard"
	"repro/internal/telemetry"
)

// TypeMeta is the data-type name of engine-health meta-events: encoded
// telemetry snapshots posted on level "" (the engine observes itself, not
// any one application).
const TypeMeta = "meta"

// EngineHealthKS consumes meta-events on the blackboard and accumulates
// them into per-component time series — the self-telemetry counterpart of
// the profiler modules. The engine's own health data arrives over a VMPI
// stream and through the same blackboard machinery as application events,
// which is the paper's online-consumption thesis applied to the
// measurement infrastructure itself.
type EngineHealthKS struct {
	// Acc holds the accumulated series; safe for concurrent access (the
	// operation runs on the blackboard's worker pool).
	Acc telemetry.Accumulator

	bb    *blackboard.Blackboard
	metaT blackboard.Type
}

// NewEngineHealthKS registers the engine-health knowledge source on the
// board, sensitive to TypeMeta entries whose payloads are encoded
// telemetry snapshots ([]byte).
func NewEngineHealthKS(bb *blackboard.Blackboard) (*EngineHealthKS, error) {
	k := &EngineHealthKS{bb: bb, metaT: blackboard.TypeID("", TypeMeta)}
	err := bb.Register(blackboard.KS{
		Name:          "engine-health",
		Sensitivities: []blackboard.Type{k.metaT},
		Op: func(_ *blackboard.Blackboard, in []*blackboard.Entry) {
			buf, ok := in[0].Payload.([]byte)
			if !ok {
				return // not a snapshot; ignore rather than kill the KS
			}
			// Decode errors are swallowed: a truncated snapshot must not
			// poison the analysis of the run it describes.
			_ = k.Acc.AddEncoded(buf)
		},
	})
	if err != nil {
		return nil, err
	}
	return k, nil
}

// PostMeta posts one encoded snapshot to the board. The buffer is decoded
// and copied by the KS, so stream-block payloads may be recycled once the
// board drains.
func (k *EngineHealthKS) PostMeta(buf []byte) {
	k.bb.Post(k.metaT, int64(len(buf)), buf)
}

// Snapshots reports how many snapshots have been unpacked.
func (k *EngineHealthKS) Snapshots() int { return k.Acc.Snapshots() }

// Summary digests the accumulated series (for the -telemetry JSON output).
func (k *EngineHealthKS) Summary() telemetry.Summary { return k.Acc.Summary() }
