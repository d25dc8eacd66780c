package exp

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/blackboard"
	"repro/internal/trace"
)

// RawSpeedConfig parameterizes one single-node analysis-speed
// measurement: pre-encoded packs are pushed through the real analysis
// engine at host speed (no simulator, no network model), so the number
// that comes out is the engine's own decode+fold ceiling in
// analyzed events per wall-clock second.
type RawSpeedConfig struct {
	// Writers is the number of concurrent pack sources (one goroutine
	// each, absorbing its own stream serially — the ordering the stream
	// layer guarantees in a real run).
	Writers int
	// EventsPerWriter is each source's Fig14 workload length.
	EventsPerWriter int
	// PackBytes bounds each encoded pack (0 = 16 KiB).
	PackBytes int
	// PackVersion selects the wire format (trace.PackV1..PackV3).
	PackVersion int
	// Shards is the blackboard shard count (0 = 1).
	Shards int
	// Workers is the blackboard worker-pool size (0 = GOMAXPROCS).
	Workers int
	// Fused routes packs through analysis.FusedIngest (v3 packs fold on
	// the ingest goroutines); false posts every pack on the board, the
	// seed engine's only path. v3 requires Fused.
	Fused bool
	// Replicas > 0 switches module folding to the shared-nothing replica
	// path: the pipeline's fold KS writes per-worker replicas instead of
	// the shared modules, and fused ingest runs Replicas
	// lock-free lanes, all merged on epoch boundaries and settled before
	// the measurement is read.
	Replicas int
}

// RawSpeedPoint is one raw analysis-speed measurement.
type RawSpeedPoint struct {
	PackVersion  int     `json:"pack_version"`
	Shards       int     `json:"shards"`
	Workers      int     `json:"workers"`
	Writers      int     `json:"writers"`
	Fused        bool    `json:"fused"`
	Replicas     int     `json:"replicas"`
	Events       int64   `json:"events"`
	WireBytes    int64   `json:"wire_bytes"`
	Seconds      float64 `json:"seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	FusedPacks   int64   `json:"fused_packs"`
	EpochMerges  int64   `json:"epoch_merges"`
}

// RawAnalysisSpeed encodes each writer's Fig14 stream with the selected
// codec, then measures the wall-clock time for the analysis engine —
// sharded blackboard, dispatcher, default module set — to analyze every
// event. Encoding happens before the clock starts: the measurement
// isolates the analysis side, which is the partition the paper sizes.
func RawAnalysisSpeed(cfg RawSpeedConfig) (RawSpeedPoint, error) {
	if cfg.Writers <= 0 || cfg.EventsPerWriter <= 0 {
		return RawSpeedPoint{}, fmt.Errorf("exp: raw speed needs writers and events")
	}
	packBytes := cfg.PackBytes
	if packBytes <= 0 {
		packBytes = 1 << 14
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.PackVersion == trace.PackV3 && !cfg.Fused {
		return RawSpeedPoint{}, fmt.Errorf("exp: v3 packs decode on the fused path only")
	}

	// Pre-encode every writer's stream.
	const appID = 1
	streams := make([][][]byte, cfg.Writers)
	var wire int64
	for w := 0; w < cfg.Writers; w++ {
		b, err := trace.NewBuilder(cfg.PackVersion, appID, int32(w), EventRecordSize, packBytes)
		if err != nil {
			return RawSpeedPoint{}, err
		}
		for i := 0; i < cfg.EventsPerWriter; i++ {
			ev := Fig14Event(i, int32(w))
			if b.Add(&ev) {
				pk := b.Take()
				wire += int64(len(pk))
				streams[w] = append(streams[w], pk)
				b.Reset(make([]byte, 0, packBytes))
			}
		}
		if pk := b.Take(); pk != nil {
			wire += int64(len(pk))
			streams[w] = append(streams[w], pk)
		}
	}

	bb := blackboard.New(blackboard.Config{Workers: workers, Shards: cfg.Shards})
	defer bb.Close()
	disp, err := analysis.NewDispatcher(bb)
	if err != nil {
		return RawSpeedPoint{}, err
	}
	pipe, err := disp.AddApp(appID, "rawspeed", cfg.Writers)
	if err != nil {
		return RawSpeedPoint{}, err
	}
	fused := analysis.NewParallelFusedIngest(disp, cfg.Replicas, 0)
	if cfg.Replicas > 0 {
		if err := pipe.EnableReplicas(0); err != nil {
			return RawSpeedPoint{}, err
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Writers)
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, pk := range streams[w] {
				if cfg.Fused {
					if _, err := fused.Absorb(w, pk); err != nil {
						errCh <- err
						return
					}
				} else {
					disp.PostRaw(pk)
				}
			}
		}(w)
	}
	wg.Wait()
	bb.Drain()
	// Settle the replica residue inside the measurement: the merges are
	// part of the work the parallel path owes before its numbers count.
	fused.Sync()
	pipe.Settle()
	secs := time.Since(start).Seconds()
	select {
	case err := <-errCh:
		return RawSpeedPoint{}, err
	default:
	}

	want := int64(cfg.Writers) * int64(cfg.EventsPerWriter)
	if got := pipe.Profiler.Events(); got != want {
		return RawSpeedPoint{}, fmt.Errorf("exp: raw speed analyzed %d of %d events", got, want)
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	return RawSpeedPoint{
		PackVersion:  cfg.PackVersion,
		Shards:       shards,
		Workers:      workers,
		Writers:      cfg.Writers,
		Fused:        cfg.Fused,
		Replicas:     cfg.Replicas,
		Events:       want,
		WireBytes:    wire,
		Seconds:      secs,
		EventsPerSec: float64(want) / secs,
		FusedPacks:   fused.FusedPacks(),
		EpochMerges:  fused.EpochMerges(),
	}, nil
}

// RawSpeedScaling measures the v3 fused path at each worker count in
// cores: blackboard workers, shards and replica lanes all scale
// together, the single knob the paper's "run at app speed on whatever
// cores the analyzer has" premise turns. cores[i] == 1 runs the serial
// (replica-free) engine, the scaling baseline.
func RawSpeedScaling(writers, eventsPerWriter int, cores []int) ([]RawSpeedPoint, error) {
	out := make([]RawSpeedPoint, 0, len(cores))
	for _, c := range cores {
		if c <= 0 {
			return nil, fmt.Errorf("exp: invalid worker count %d", c)
		}
		cfg := RawSpeedConfig{
			Writers:         writers,
			EventsPerWriter: eventsPerWriter,
			PackVersion:     trace.PackV3,
			Fused:           true,
			Workers:         c,
			Shards:          c,
		}
		if c > 1 {
			cfg.Replicas = c
		}
		pt, err := RawAnalysisSpeed(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}
