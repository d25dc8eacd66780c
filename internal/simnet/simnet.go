// Package simnet models the interconnect of a fat-tree cluster in virtual
// time.
//
// The model is deliberately simple but captures the three effects the
// paper's evaluation depends on:
//
//  1. per-endpoint injection/ejection bandwidth (a NIC port is a FIFO
//     server, so many senders targeting one receiver serialize on the
//     receiver's port);
//  2. a machine-wide bisection bandwidth cap (all cross-node traffic shares
//     one aggregate pipe, as on a fat tree with full bisection this cap is
//     rarely the binding constraint, but it bounds pathological fan-outs);
//  3. a fixed per-message latency.
//
// Transfer returns a delivery time; it never blocks, so the MPI layer
// decides which semantics (eager, rendezvous, credit-based) to build on
// top.
package simnet

import (
	"time"

	"repro/internal/des"
	"repro/internal/telemetry"
)

// Config describes the interconnect. The zero value is unusable; use
// DefaultConfig as a starting point.
type Config struct {
	// Latency is the base one-way message latency.
	Latency time.Duration
	// EndpointBandwidth is the injection (and ejection) bandwidth of a
	// single NIC, in bytes per second. With CoresPerNode > 1, all ranks of
	// a node share this NIC, which is what makes many-writers-per-node
	// configurations NIC-bound (the dominant effect in the paper's
	// Figure 14).
	EndpointBandwidth float64
	// CoresPerNode is how many consecutive endpoints (ranks) share one
	// NIC. Values < 1 are treated as 1.
	CoresPerNode int
	// BisectionBandwidth caps aggregate cross-node traffic, in bytes per
	// second. Zero means unlimited. For a fat tree this should scale with
	// the allocation size; internal/exp computes it per experiment.
	BisectionBandwidth float64
	// SmallMessage is the eager threshold used only for cost accounting:
	// messages at or below it pay latency but negligible bandwidth cost
	// beyond their size.
	SmallMessage int64
	// LocalCopyBandwidth is the memcpy bandwidth for self-sends and
	// intra-node transfers, in bytes per second. Zero disables the cost
	// (instant local delivery).
	LocalCopyBandwidth float64
}

// DefaultConfig models an Infiniband-QDR-class fabric like Tera 100's:
// ~1.5 us latency, ~3.2 GB/s per node NIC. CoresPerNode defaults to 1 (one
// rank per NIC); experiments that model node sharing set it to the
// machine's core count per node.
func DefaultConfig() Config {
	return Config{
		Latency:            1500 * time.Nanosecond,
		EndpointBandwidth:  3.2e9,
		CoresPerNode:       1,
		BisectionBandwidth: 0, // fat tree: full bisection unless configured
		SmallMessage:       4096,
		LocalCopyBandwidth: 8e9,
	}
}

// Net is the interconnect model. It is not safe for concurrent use; all
// calls must come from simulation context (one process at a time).
type Net struct {
	cfg      Config
	tx       []des.Queue // per-node injection port
	rx       []des.Queue // per-node ejection port
	spine    des.Queue   // shared bisection pipe
	spineSel func(from, to int) bool

	bytesMoved int64
	messages   int64
	tel        *telemetry.NetMetrics
}

// SetTelemetry attaches a telemetry bundle (nil allowed and free): each
// transfer then feeds message/byte counters and reports the sending NIC's
// queue backlog in virtual nanoseconds.
func (n *Net) SetTelemetry(m *telemetry.NetMetrics) { n.tel = m }

// SetSpineFilter restricts the bisection cap to transfers for which fn
// returns true. On a fat tree with (near-)full bisection, an application's
// neighbour traffic is NIC-bound, not cut-bound; what saturates the
// section is bulk traffic between disjoint partitions (the stream
// experiments of Figure 14). The MPI world installs a filter charging the
// spine only for inter-program transfers. A nil filter (default) charges
// every inter-node transfer.
func (n *Net) SetSpineFilter(fn func(from, to int) bool) { n.spineSel = fn }

// New creates a network with n endpoints (global MPI ranks). Consecutive
// endpoints are packed CoresPerNode to a node, mirroring how batch managers
// place ranks on a cluster.
func New(n int, cfg Config) *Net {
	if cfg.CoresPerNode < 1 {
		cfg.CoresPerNode = 1
	}
	nodes := (n + cfg.CoresPerNode - 1) / cfg.CoresPerNode
	return &Net{
		cfg: cfg,
		tx:  make([]des.Queue, nodes),
		rx:  make([]des.Queue, nodes),
	}
}

// Nodes returns the number of simulated nodes.
func (n *Net) Nodes() int { return len(n.tx) }

// NodeOf returns the node an endpoint is placed on.
func (n *Net) NodeOf(ep int) int { return ep / n.cfg.CoresPerNode }

// Config returns the network configuration.
func (n *Net) Config() Config { return n.cfg }

// BytesMoved reports the cumulative payload bytes transferred.
func (n *Net) BytesMoved() int64 { return n.bytesMoved }

// Messages reports the cumulative number of transfers.
func (n *Net) Messages() int64 { return n.messages }

func (n *Net) serial(size int64, bw float64) time.Duration {
	if bw <= 0 || size <= 0 {
		return 0
	}
	return des.SecondsToDuration(float64(size) / bw)
}

// Transfer computes the delivery time of a message of the given size sent
// from endpoint 'from' at virtual time 'now' to endpoint 'to'. The
// sender-visible injection completion time is returned as injected (an
// eager send returns to the caller at that point); delivered is when the
// payload is fully available at the receiver.
func (n *Net) Transfer(now des.Time, from, to int, size int64) (injected, delivered des.Time) {
	n.bytesMoved += size
	n.messages++
	fn, tn := n.NodeOf(from), n.NodeOf(to)
	if fn == tn {
		// Same node (including self-sends): shared-memory copy, no NIC.
		d := n.serial(size, n.cfg.LocalCopyBandwidth)
		end := now + des.DurationToTime(d)
		n.tel.OnTransfer(size, 0)
		return end, end
	}
	ser := n.serial(size, n.cfg.EndpointBandwidth)
	injected = n.tx[fn].Next(now, ser)
	n.tel.OnTransfer(size, int64(injected-now))
	cross := injected
	if n.cfg.BisectionBandwidth > 0 && (n.spineSel == nil || n.spineSel(from, to)) {
		cross = n.spine.Next(injected, n.serial(size, n.cfg.BisectionBandwidth))
	}
	delivered = n.rx[tn].Next(cross, ser) + des.DurationToTime(n.cfg.Latency)
	return injected, delivered
}

// InjectOnly accounts for the sender-side cost of a message without a
// receiver (used for modeled collective traffic where the rendezvous
// formula owns the end-to-end cost but injection still loads the port).
func (n *Net) InjectOnly(now des.Time, from int, size int64) des.Time {
	n.bytesMoved += size
	n.messages++
	injected := n.tx[n.NodeOf(from)].Next(now, n.serial(size, n.cfg.EndpointBandwidth))
	n.tel.OnTransfer(size, int64(injected-now))
	return injected
}
