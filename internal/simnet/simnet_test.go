package simnet

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
	"repro/internal/telemetry"
)

func testConfig() Config {
	return Config{
		Latency:            1 * time.Microsecond,
		EndpointBandwidth:  1e9, // 1 GB/s: 1 byte per ns, easy math
		LocalCopyBandwidth: 2e9,
	}
}

func TestSingleTransferTiming(t *testing.T) {
	n := New(2, testConfig())
	inj, del := n.Transfer(0, 0, 1, 1000) // 1000 B at 1 GB/s = 1 us serial
	if inj != des.DurationToTime(1*time.Microsecond) {
		t.Fatalf("injected = %v", inj.Duration())
	}
	// serialization on tx, then rx, then latency: 1us + 1us + 1us.
	if del != des.DurationToTime(3*time.Microsecond) {
		t.Fatalf("delivered = %v", del.Duration())
	}
}

func TestReceiverPortSerializes(t *testing.T) {
	n := New(3, testConfig())
	// Two senders to the same receiver at t=0: second delivery must queue
	// behind the first on the rx port.
	_, d1 := n.Transfer(0, 0, 2, 1000)
	_, d2 := n.Transfer(0, 1, 2, 1000)
	if d2 <= d1 {
		t.Fatalf("d2 = %v not after d1 = %v", d2.Duration(), d1.Duration())
	}
	if d2-d1 != des.DurationToTime(1*time.Microsecond) {
		t.Fatalf("rx gap = %v, want 1us", (d2 - d1).Duration())
	}
}

func TestDistinctReceiversParallel(t *testing.T) {
	n := New(4, testConfig())
	_, d1 := n.Transfer(0, 0, 2, 1000)
	_, d2 := n.Transfer(0, 1, 3, 1000)
	if d1 != d2 {
		t.Fatalf("independent paths should not interfere: %v vs %v", d1, d2)
	}
}

func TestSelfSendUsesLocalCopy(t *testing.T) {
	n := New(2, testConfig())
	inj, del := n.Transfer(0, 1, 1, 2000) // 2000 B at 2 GB/s = 1 us
	if inj != del {
		t.Fatalf("self send should have inj == del")
	}
	if del != des.DurationToTime(1*time.Microsecond) {
		t.Fatalf("del = %v", del.Duration())
	}
}

func TestBisectionCap(t *testing.T) {
	cfg := testConfig()
	cfg.BisectionBandwidth = 1e9 // same as one endpoint
	n := New(20, cfg)
	// 10 disjoint pairs, 1 MB each, at t=0. Without a cap they'd all finish
	// at ~1ms; with a 1 GB/s spine the last finishes after ~10 ms.
	var last des.Time
	for i := 0; i < 10; i++ {
		_, d := n.Transfer(0, i, 10+i, 1_000_000)
		if d > last {
			last = d
		}
	}
	if last < des.DurationToTime(10*time.Millisecond) {
		t.Fatalf("bisection cap not enforced: last = %v", last.Duration())
	}
}

func TestCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	n := New(2, testConfig())
	n.SetTelemetry(telemetry.NewNetMetrics(reg))
	n.Transfer(0, 0, 1, 500)
	n.Transfer(0, 1, 0, 700)
	n.Transfer(0, 1, 1, 300) // a self-send counts too
	if got := reg.Counter("net.bytes").Value(); got != 1500 {
		t.Fatalf("net.bytes = %d", got)
	}
	if got := reg.Counter("net.messages").Value(); got != 3 {
		t.Fatalf("net.messages = %d", got)
	}
}

// Property: delivery never precedes injection, and injection never precedes
// the send time; both are monotone in message size for a fresh network.
func TestTransferOrderingProperty(t *testing.T) {
	f := func(sz uint32, lat uint16) bool {
		cfg := testConfig()
		cfg.Latency = time.Duration(lat) * time.Nanosecond
		n := New(2, cfg)
		now := des.Time(1000)
		inj, del := n.Transfer(now, 0, 1, int64(sz%10_000_000))
		return inj >= now && del >= inj
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSizeTransferCostsLatencyOnly(t *testing.T) {
	n := New(2, testConfig())
	inj, del := n.Transfer(0, 0, 1, 0)
	if inj != 0 {
		t.Fatalf("inj = %v", inj)
	}
	if del != des.DurationToTime(1*time.Microsecond) {
		t.Fatalf("del = %v", del.Duration())
	}
}

func TestNodeSharedNIC(t *testing.T) {
	cfg := testConfig()
	cfg.CoresPerNode = 4
	n := New(8, cfg) // 2 nodes of 4 cores
	if len(n.tx) != 2 || n.NodeOf(3) != 0 || n.NodeOf(4) != 1 {
		t.Fatalf("node layout wrong: nodes=%d", len(n.tx))
	}
	// Four ranks on node 0 each send 1 MB to node 1: they serialize on the
	// shared tx NIC (1 GB/s): last injection >= 4 ms.
	var lastInj des.Time
	for i := 0; i < 4; i++ {
		inj, _ := n.Transfer(0, i, 4+i, 1_000_000)
		if inj > lastInj {
			lastInj = inj
		}
	}
	if lastInj < des.DurationToTime(4*time.Millisecond) {
		t.Fatalf("shared NIC not serializing: last injection = %v", lastInj.Duration())
	}
}

func TestIntraNodeTransferSkipsNIC(t *testing.T) {
	cfg := testConfig()
	cfg.CoresPerNode = 4
	n := New(8, cfg)
	// Rank 0 -> rank 1 on the same node: local copy at 2 GB/s, no latency.
	inj, del := n.Transfer(0, 0, 1, 2000)
	if inj != del || del != des.DurationToTime(1*time.Microsecond) {
		t.Fatalf("intra-node transfer cost wrong: inj=%v del=%v", inj.Duration(), del.Duration())
	}
	// NIC ports untouched.
	_, del2 := n.Transfer(0, 0, 4, 1000)
	if del2 != des.DurationToTime(3*time.Microsecond) {
		t.Fatalf("NIC should be idle after intra-node traffic: %v", del2.Duration())
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.EndpointBandwidth <= 0 || cfg.Latency <= 0 {
		t.Fatal("default config must have positive bandwidth and latency")
	}
}
