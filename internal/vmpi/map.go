package vmpi

import (
	"encoding/binary"
	"fmt"
)

// Policy selects how slave-partition processes are matched to
// master-partition processes during mapping (the paper's Figure 8).
type Policy int

// Default mapping policies.
const (
	// MapRoundRobin deals slave ranks over master ranks in order.
	MapRoundRobin Policy = iota
	// MapRandom assigns each slave rank a uniformly random master rank
	// (drawn from the simulation's deterministic source).
	MapRandom
	// MapFixed assigns contiguous blocks of slave ranks to each master
	// rank.
	MapFixed
)

// policyFunc returns the policy's mapping: given a slave's local rank and
// both partition sizes, the target master local rank.
func policyFunc(p Policy) func(slaveLocal, slaveSize, masterSize int) int {
	switch p {
	case MapRoundRobin:
		return func(i, _, m int) int { return i % m }
	case MapFixed:
		return func(i, s, m int) int { return i * m / s }
	case MapRandom:
		return nil // resolved against the simulator RNG at assignment time
	default:
		panic(fmt.Sprintf("vmpi: unknown mapping policy %d", int(p)))
	}
}

// Map holds the processes a given process is coupled with. Maps are
// additive: successive MapPartitions calls append entries, which is how a
// single analyzer partition maps to several instrumented applications.
type Map struct {
	targets []int // universe ranks
}

// Clear empties the map (the paper's VMPI_Map_clear).
func (m *Map) Clear() { m.targets = nil }

// Targets returns the universe ranks this process is coupled with, in
// assignment order. The returned slice is owned by the map.
func (m *Map) Targets() []int { return m.targets }

func (m *Map) add(globals ...int) { m.targets = append(m.targets, globals...) }

// Reserved universe tags for the vmpi control and data protocols. They live
// far above any application tag space.
const (
	tagMapRegister = 1 << 20
	tagMapAssign   = 1<<20 + 1
	tagStreamBase  = 1<<20 + 16
)

func encodeRanks(ranks []int) []byte {
	buf := make([]byte, 4*len(ranks))
	for i, r := range ranks {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(r))
	}
	return buf
}

func decodeRanks(buf []byte) []int {
	out := make([]int, len(buf)/4)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out
}

// MapPartitions maps the calling process's partition with the target
// partition using a default policy, appending the resulting associations to
// m. Every process of both partitions must call it (with equal arguments),
// like the paper's VMPI_Map_partitions. It runs the pivot protocol of the
// paper's Figure 7:
//
//   - the larger partition is the slave, the smaller the master (ties break
//     toward the lower partition id as master);
//   - every slave process registers its universe rank with the master root;
//   - the root assigns a master-local rank per registration according to
//     the policy and records the association both ways;
//   - the root answers each slave with its match and finally sends every
//     master process its (possibly empty) list of slaves, which doubles as
//     the end-of-mapping broadcast.
func (s *Session) MapPartitions(target int, policy Policy, m *Map) error {
	l := s.layout
	if target < 0 || target >= l.PartitionCount() {
		return fmt.Errorf("vmpi: mapping to unknown partition %d", target)
	}
	if target == s.PartitionID() {
		return fmt.Errorf("vmpi: cannot map partition %d to itself", target)
	}
	mine := s.part
	other := l.Partition(target)

	master, slave := mine, other
	if mine.Size() > other.Size() || (mine.Size() == other.Size() && mine.ID > other.ID) {
		master, slave = other, mine
	}
	fn := policyFunc(policy)

	u := s.Universe()
	r := s.rank
	iAmMasterRoot := r.Global() == master.Root()
	iAmSlave := slave == mine

	if iAmSlave {
		// Register with the pivot, then wait for the assignment.
		r.Send(u, master.Root(), tagMapRegister, 4, encodeRanks([]int{r.Global()}))
		_, payload := r.Recv(u, master.Root(), tagMapAssign)
		m.add(decodeRanks(payload)...)
		return nil
	}

	if iAmMasterRoot {
		perMaster := make([][]int, master.Size())
		for i, sg := range slave.Globals {
			_, payload := r.Recv(u, sg, tagMapRegister)
			got := decodeRanks(payload)[0]
			if got != sg {
				return fmt.Errorf("vmpi: mapping registration mismatch: expected %d, got %d", sg, got)
			}
			var mi int
			if fn != nil {
				mi = fn(i, slave.Size(), master.Size())
			} else {
				mi = r.World().Sim().Rand().Intn(master.Size())
			}
			perMaster[mi] = append(perMaster[mi], sg)
			// Answer the slave with its match.
			r.Send(u, sg, tagMapAssign, 4, encodeRanks([]int{master.Globals[mi]}))
		}
		// Deliver every master process its slave list; an empty list still
		// signals end-of-mapping.
		for mi, mg := range master.Globals {
			if mg == r.Global() {
				m.add(perMaster[mi]...)
				continue
			}
			buf := encodeRanks(perMaster[mi])
			r.Send(u, mg, tagMapAssign, int64(len(buf)), buf)
		}
		return nil
	}

	// Master non-root: wait for the pivot's end-of-mapping message.
	_, payload := r.Recv(u, master.Root(), tagMapAssign)
	m.add(decodeRanks(payload)...)
	return nil
}
