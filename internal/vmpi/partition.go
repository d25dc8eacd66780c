// Package vmpi implements the paper's online-coupling layer on top of the
// MPI runtime model: MPI virtualization (per-program MPI_COMM_WORLD plus a
// shared MPI_COMM_UNIVERSE), named process partitions with queryable
// descriptors, pivot-based partition-to-partition mappings (VMPI_Map), and
// persistent asynchronous communication channels with UNIX-pipe semantics
// (VMPI_Stream).
//
// The paper implements virtualization by intercepting every MPI call
// through a generated PMPI wrapper and swapping MPI_COMM_WORLD for a
// sub-communicator. In this reproduction the interception point is the
// Session: application code asks the session for its world communicator and
// transparently receives the partition communicator, while the real global
// communicator remains reachable as Universe — exactly the sandboxing the
// paper describes, without the C preprocessor machinery.
package vmpi

import (
	"fmt"

	"repro/internal/mpi"
)

// Partition is a named group of processes (the paper's partition
// description, queryable by name from any process).
type Partition struct {
	// ID is the partition's index in the layout.
	ID int
	// Name is the partition name (program name, or the name set with the
	// paper's VMPI_Set_partition_name).
	Name string
	// Globals lists the partition's processes as universe ranks, in local
	// rank order.
	Globals []int

	comm *mpi.Comm
}

// Size returns the number of processes in the partition.
func (p *Partition) Size() int { return len(p.Globals) }

// Root returns the universe rank of the partition's root (local rank 0),
// which acts as the pivot in mapping protocols.
func (p *Partition) Root() int { return p.Globals[0] }

// Layout is the per-job shared view of all partitions. Build it once (after
// mpi.NewWorld, before World.Run) and let every rank's Main call Init on it:
// communicators are shared objects, so the layout must be common to all
// ranks, just as the real VMPI library builds its partition table during
// MPI_Init.
type Layout struct {
	world *mpi.World
	parts []*Partition
}

// NewLayout derives partitions from the world's MPMD program table.
// Programs sharing a name are grouped into a single partition, following
// the paper ("processes are grouped in partitions either by names or
// command lines").
func NewLayout(w *mpi.World) *Layout {
	l := &Layout{world: w}
	index := map[string]*Partition{}
	for pi, prog := range w.Programs() {
		part, ok := index[prog.Name]
		if !ok {
			part = &Partition{
				ID:   len(l.parts),
				Name: prog.Name,
			}
			index[prog.Name] = part
			l.parts = append(l.parts, part)
		}
		part.Globals = append(part.Globals, w.ProgramRanks(pi)...)
	}
	for _, part := range l.parts {
		part.comm = w.NewComm(part.Globals)
	}
	return l
}

// PartitionCount returns the number of partitions (the paper's
// VMPI_Get_partition_count).
func (l *Layout) PartitionCount() int { return len(l.parts) }

// Partition returns the partition with the given id.
func (l *Layout) Partition(id int) *Partition { return l.parts[id] }

// DescByName returns the partition with the given name, or nil (the
// paper's VMPI_Get_desc_by_name).
func (l *Layout) DescByName(name string) *Partition {
	for _, p := range l.parts {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// PartitionOf returns the partition containing the given universe rank.
func (l *Layout) PartitionOf(global int) *Partition {
	for _, p := range l.parts {
		for _, g := range p.Globals {
			if g == global {
				return p
			}
		}
	}
	return nil
}

// Session is the per-process VMPI state, the product of virtualization:
// WorldComm is the process's sandboxed MPI_COMM_WORLD, Universe the real
// one.
type Session struct {
	layout *Layout
	rank   *mpi.Rank
	part   *Partition
	local  int
}

// Init virtualizes a rank: it resolves the rank's partition and returns the
// session handle every other vmpi call hangs off. It is the analogue of the
// wrapped MPI_Init in the paper's preloadable library.
func (l *Layout) Init(r *mpi.Rank) *Session {
	part := l.PartitionOf(r.Global())
	if part == nil {
		panic(fmt.Sprintf("vmpi: rank %d belongs to no partition", r.Global()))
	}
	return &Session{
		layout: l,
		rank:   r,
		part:   part,
		local:  part.comm.LocalOf(r.Global()),
	}
}

// Rank returns the underlying MPI rank handle.
func (s *Session) Rank() *mpi.Rank { return s.rank }

// Layout returns the shared partition layout.
func (s *Session) Layout() *Layout { return s.layout }

// WorldComm returns the virtualized MPI_COMM_WORLD: the communicator of the
// process's own partition.
func (s *Session) WorldComm() *mpi.Comm { return s.part.comm }

// Universe returns the real world communicator spanning all partitions
// (the paper's MPI_COMM_UNIVERSE).
func (s *Session) Universe() *mpi.Comm { return s.layout.world.Universe() }

// PartitionID returns the id of the process's partition (the paper's
// VMPI_Get_partition_id).
func (s *Session) PartitionID() int { return s.part.ID }

// LocalRank returns the process's rank inside its partition (its rank in
// the virtualized world).
func (s *Session) LocalRank() int { return s.local }
