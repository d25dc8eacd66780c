package telemetry

import "testing"

// TestDisabledTelemetryZeroAllocs is the CI guard for the disabled-path
// contract: every nil-handle operation an instrumented hot path performs
// (stream writes/reads, NIC transfers, sink events, blackboard jobs) must
// cost zero allocations, so runs without -telemetry pay nothing beyond a
// nil check.
func TestDisabledTelemetryZeroAllocs(t *testing.T) {
	var (
		reg     *Registry
		stream  *StreamMetrics
		net     *NetMetrics
		sink    *SinkMetrics
		board   *BoardMetrics
		sampler *Sampler
		c       = reg.Counter("c")
		g       = reg.Gauge("g")
		h       = reg.Histogram("h", LatencyBounds)
		lat     = board.KSLatency("x")
	)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(1)
		h.Observe(1)
		lat.Observe(1)
		stream.OnWrite(64)
		stream.OnRead(64)
		stream.OnWriteStall()
		stream.OnEAGAIN()
		stream.OnQuarantine()
		stream.OnFailover()
		stream.OnDrop()
		stream.CreditsInFlight(2)
		net.OnTransfer(64, 1)
		sink.OnEvent()
		sink.OnFlush(10, 640)
		sink.OnFallback()
		board.OnPost()
		board.OnJob()
		board.OnBackoff()
		board.OnDrop()
		board.QueueDepth(1)
		_ = sampler.Poll(0)
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocates %v allocs/op, want 0", allocs)
	}
}

// TestEnabledSteadyStateEncodeAllocs documents that re-encoding into a
// recycled buffer is allocation-free once the buffer has grown to size.
func TestEnabledSteadyStateEncodeAllocs(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Add(1)
	reg.Gauge("b").Set(2)
	reg.Histogram("h", LatencyBounds).Observe(3)
	buf := reg.EncodeSnapshot(nil, 0, 0, 0)
	allocs := testing.AllocsPerRun(100, func() {
		buf = reg.EncodeSnapshot(buf[:0], 1, 1, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state encode allocates %v allocs/op, want 0", allocs)
	}
}
