// Package nas implements communication skeletons of the NAS-MPI benchmarks
// (BT, CG, FT, LU, SP, classes C and D) and of EulerMHD, the mid-sized C++
// MPI application of the paper's evaluation.
//
// A skeleton reproduces a benchmark's process geometry, per-iteration
// communication pattern (partners, message sizes, collectives) and a
// calibrated compute-time model, which is everything the paper's
// measurements depend on: instrumentation overhead is a function of the
// event rate versus compute time (the paper's Bi argument, §IV-C), and the
// topology/density figures are functions of the communication pattern.
// Numerics are not reproduced — no flops are actually performed.
//
// Faithfulness choices worth knowing:
//
//   - Local grid sizes use the real ceil/floor remainder split, so ranks
//     owning one extra grid line compute and communicate slightly more —
//     this is the source of the small point-to-point size imbalance the
//     paper observes on BT.D (Figure 18e, a ≈0.6 % spread).
//   - BT and SP carry a smooth, symmetric compute imbalance (a centered
//     bump, as cache/memory effects produce on real grids), which yields
//     the symmetric wait-time and collective-time maps of Figures 18c/18d.
//   - LU's SSOR sweeps are real pipelined wavefronts over blocking
//     sends/receives on a non-periodic mesh, so interior ranks issue more
//     sends than edge and corner ranks (Figure 18a) and pipeline fill
//     shows up as wait time.
//   - CG's reduce-exchange ladder and transpose partner produce the
//     power-of-two banded matrix of Figure 17a.
package nas

import (
	"fmt"
	"math"
	"time"

	"repro/internal/instrument"
)

// Class is a NAS problem class.
type Class byte

// Supported classes. (A and B exist in NAS but the paper evaluates C and D.)
const (
	ClassA Class = 'A'
	ClassB Class = 'B'
	ClassC Class = 'C'
	ClassD Class = 'D'
)

// Call-site context identifiers stamped on events by the skeletons (the
// paper's instrumentation records each call's context; these ids feed the
// analyzer's call-site module).
const (
	CtxCopyFaces uint32 = iota + 1
	CtxXSolve
	CtxYSolve
	CtxZSolve
	CtxResidual
	CtxLowerSweep
	CtxUpperSweep
	CtxHalo
	CtxLadder
	CtxTranspose
	CtxTransposeFFT
	CtxDiagnostics
)

// ContextLabels maps the skeletons' call-site context ids to names for
// report labelling.
func ContextLabels() map[uint32]string {
	return map[uint32]string{
		CtxCopyFaces:    "copy_faces",
		CtxXSolve:       "x_solve",
		CtxYSolve:       "y_solve",
		CtxZSolve:       "z_solve",
		CtxResidual:     "residual_norm",
		CtxLowerSweep:   "lower_sweep",
		CtxUpperSweep:   "upper_sweep",
		CtxHalo:         "halo_exchange",
		CtxLadder:       "reduce_exchange",
		CtxTranspose:    "transpose",
		CtxTransposeFFT: "fft_transpose",
		CtxDiagnostics:  "diagnostics",
	}
}

// FlopRate is the modeled effective per-core compute rate in flops/s,
// calibrated to a Nehalem-EX core running a memory-bound CFD code (about
// 15–20 % of peak). It is the single knob converting flop counts into
// virtual seconds.
const FlopRate = 1.5e9

// Workload is a runnable benchmark skeleton.
type Workload struct {
	// Name is the benchmark identifier, e.g. "SP.C".
	Name string
	// Procs is the required process count.
	Procs int
	// Iters is the number of timesteps the skeleton will run.
	Iters int
	// FullIters is the official iteration count of the class (Iters may be
	// reduced for fast sweeps; ratios like overhead are unaffected).
	FullIters int
	// Run executes the skeleton on an interposed MPI handle. Run calls
	// m.Init / m.Finalize itself.
	Run func(m *instrument.MPI)
}

func secondsOfFlops(flops float64) time.Duration {
	return time.Duration(flops / FlopRate * 1e9)
}

// chunk returns the size of block i when n points are dealt over q blocks
// with the real remainder split (first n%q blocks get one extra point).
func chunk(n, q, i int) int {
	c := n / q
	if i < n%q {
		c++
	}
	return c
}

// grid2D factorizes p into the most square px×py decomposition.
func grid2D(p int) (px, py int) {
	px = int(math.Sqrt(float64(p)))
	for px > 1 && p%px != 0 {
		px--
	}
	return px, p / px
}

// isSquare reports whether p is a perfect square, returning its root.
func isSquare(p int) (int, bool) {
	q := int(math.Sqrt(float64(p)) + 0.5)
	return q, q*q == p
}

// isPow2 reports whether p is a power of two.
func isPow2(p int) bool { return p > 0 && p&(p-1) == 0 }

func log2int(p int) int {
	l := 0
	for 1<<uint(l) < p {
		l++
	}
	return l
}

// classGrid returns the cubic grid size of BT/SP/LU for a class.
func classGrid(class Class) (int, error) {
	switch class {
	case ClassA:
		return 64, nil
	case ClassB:
		return 102, nil
	case ClassC:
		return 162, nil
	case ClassD:
		return 408, nil
	}
	return 0, fmt.Errorf("nas: unsupported class %q", string(class))
}

// jitterAmp is the amplitude of the per-rank compute noise (OS jitter,
// cache placement): ±0.1 %. It is derived deterministically from the
// world seed, so re-running an experiment with several seeds and
// averaging — as the paper does ("averaged" 3 to 5 times) — integrates
// out synchronization-phase effects.
const jitterAmp = 0.001

// jitter returns a deterministic per-rank noise factor in
// [1-jitterAmp, 1+jitterAmp), derived from the world seed.
func jitter(m *instrument.MPI) float64 {
	h := uint64(m.MPIRank().World().Seed())*0x9e3779b97f4a7c15 + uint64(m.Rank())*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	frac := float64(h%(1<<20))/(1<<19) - 1 // [-1, 1)
	return 1 + jitterAmp*frac
}

// bump is a smooth, symmetric load imbalance over a q×q grid: 0 at the
// borders, 1 at the centre.
func bump(i, j, q int) float64 {
	if q <= 1 {
		return 0
	}
	return math.Sin(math.Pi*float64(i)/float64(q-1)) * math.Sin(math.Pi*float64(j)/float64(q-1))
}

// --- BT and SP ---

// btsp builds a BT- or SP-family workload: square process grid, face
// exchanges plus three directional line-solve phases per timestep, and the
// occasional residual reduction. BT and SP differ in flops per point,
// solver message sizes and stage counts.
func btsp(kind string, class Class, procs, iters int) (*Workload, error) {
	q, ok := isSquare(procs)
	if !ok {
		return nil, fmt.Errorf("nas: %s requires a square process count, got %d", kind, procs)
	}
	n, err := classGrid(class)
	if err != nil {
		return nil, err
	}
	var flopsPerPoint float64
	var defaultIters int
	var solveScale float64
	switch kind {
	case "BT":
		flopsPerPoint = 11000
		solveScale = 1.0
		if class == ClassD {
			defaultIters = 250
		} else {
			defaultIters = 200
		}
	case "SP":
		flopsPerPoint = 8000
		solveScale = 0.6
		if class == ClassD {
			defaultIters = 500
		} else {
			defaultIters = 400
		}
	default:
		return nil, fmt.Errorf("nas: unknown BT/SP kind %q", kind)
	}
	full := defaultIters
	if iters <= 0 {
		iters = full
	}
	name := fmt.Sprintf("%s.%s", kind, string(class))
	return &Workload{
		Name:      name,
		Procs:     procs,
		Iters:     iters,
		FullIters: full,
		Run: func(m *instrument.MPI) {
			me := m.Rank()
			i, j := me/q, me%q
			// Real remainder split: local plane points and face lines.
			nx, ny := chunk(n, q, i), chunk(n, q, j)
			localPoints := float64(nx) * float64(ny) * float64(n)
			// Face bytes: 5 solution components, 8-byte doubles, a
			// full-depth face of the local block.
			faceX := int64(5 * 8 * ny * n)
			faceY := int64(5 * 8 * nx * n)
			// Torus neighbours (multipartition wraps around).
			north := ((i-1+q)%q)*q + j
			south := ((i+1)%q)*q + j
			west := i*q + (j-1+q)%q
			east := i*q + (j+1)%q
			// Line solves sweep the process grid: about q stages, each
			// issuing several per-plane messages. The multiplicity is
			// calibrated so per-iteration event counts match the volumes
			// the paper reports (SP.D online traces of 333.22 GB at 4096
			// cores imply ≈635 events per rank per iteration).
			stages := int(solveScale*float64(q)/3) + 1
			solveMsgs := stages * 3
			// A ≈0.5 % centered compute imbalance (cache/NUMA-like): the
			// source of the symmetric wait-time maps of Figures 18c/18d,
			// sized to stand clear of the ±0.1 % per-rank jitter.
			computePerIter := secondsOfFlops(flopsPerPoint * localPoints *
				(1 + 0.005*bump(i, j, q)))

			computePerIter = time.Duration(float64(computePerIter) * jitter(m))
			nsPeers := []int{north, south}
			wePeers := []int{west, east}
			allPeers := []int{north, south, west, east}
			m.Init()
			for it := 0; it < iters; it++ {
				// copy_faces: boundary exchange with the four torus
				// neighbours, posted as a group (pairwise chains would
				// circular-wait on a torus).
				m.SetContext(CtxCopyFaces)
				m.ExchangeGroup(allPeers, 100, []int64{faceX, faceX, faceY, faceY}, 6)
				m.Compute(computePerIter / 2)
				// x/y/z solves: pipelined line solves along each grid
				// direction (z reuses the x partners, as the
				// multipartition scheme cycles cell owners).
				m.SetContext(CtxXSolve)
				m.ExchangeGroup(wePeers, 102, []int64{faceY / 12, faceY / 12}, solveMsgs)
				m.SetContext(CtxYSolve)
				m.ExchangeGroup(nsPeers, 103, []int64{faceX / 12, faceX / 12}, solveMsgs)
				m.SetContext(CtxZSolve)
				m.ExchangeGroup(wePeers, 104, []int64{faceY / 12, faceY / 12}, solveMsgs)
				m.Compute(computePerIter / 2)
				// Residual norm.
				m.SetContext(CtxResidual)
				m.Allreduce(40)
			}
			m.Finalize()
		},
	}, nil
}

// BT builds the Block-Tridiagonal benchmark skeleton. procs must be a
// perfect square; iters <= 0 selects the class's official count.
func BT(class Class, procs, iters int) (*Workload, error) { return btsp("BT", class, procs, iters) }

// SP builds the Scalar-Pentadiagonal benchmark skeleton; same constraints
// as BT.
func SP(class Class, procs, iters int) (*Workload, error) { return btsp("SP", class, procs, iters) }

// --- LU ---

// LU builds the Lower-Upper Gauss-Seidel benchmark skeleton: a 2-D
// non-periodic process mesh running SSOR wavefront sweeps with blocking
// point-to-point pipelines.
func LU(class Class, procs, iters int) (*Workload, error) {
	n, err := classGrid(class)
	if err != nil {
		return nil, err
	}
	px, py := grid2D(procs)
	full := 250
	if class == ClassD {
		full = 300
	}
	if iters <= 0 {
		iters = full
	}
	const kBlocks = 8 // pipelined z-blocks per sweep (sampled from n)
	name := fmt.Sprintf("LU.%s", string(class))
	return &Workload{
		Name:      name,
		Procs:     procs,
		Iters:     iters,
		FullIters: full,
		Run: func(m *instrument.MPI) {
			me := m.Rank()
			i, j := me/py, me%py
			nx, ny := chunk(n, px, i), chunk(n, py, j)
			localPoints := float64(nx) * float64(ny) * float64(n)
			computePerIter := secondsOfFlops(6000 * localPoints)
			// Non-periodic mesh: -1 marks a missing neighbour.
			north, south, west, east := -1, -1, -1, -1
			if i > 0 {
				north = (i-1)*py + j
			}
			if i < px-1 {
				south = (i+1)*py + j
			}
			if j > 0 {
				west = i*py + (j - 1)
			}
			if j < py-1 {
				east = i*py + (j + 1)
			}
			// Pencil faces exchanged during sweeps: 5 components over the
			// local edge, one z-block deep.
			computePerIter = time.Duration(float64(computePerIter) * jitter(m))
			lineX := int64(5 * 8 * ny * (n / kBlocks))
			lineY := int64(5 * 8 * nx * (n / kBlocks))
			haloX := int64(5 * 8 * ny * n)
			haloY := int64(5 * 8 * nx * n)
			blockCompute := computePerIter / (2 * kBlocks)
			// The Jacobi halo's peers and sizes: every existing neighbour.
			var hPeers []int
			var hSizes []int64
			if north >= 0 {
				hPeers, hSizes = append(hPeers, north), append(hSizes, haloX)
			}
			if south >= 0 {
				hPeers, hSizes = append(hPeers, south), append(hSizes, haloX)
			}
			if west >= 0 {
				hPeers, hSizes = append(hPeers, west), append(hSizes, haloY)
			}
			if east >= 0 {
				hPeers, hSizes = append(hPeers, east), append(hSizes, haloY)
			}

			m.Init()
			for it := 0; it < iters; it++ {
				// Lower-triangular sweep: wavefront from (0,0).
				m.SetContext(CtxLowerSweep)
				for kb := 0; kb < kBlocks; kb++ {
					if north >= 0 {
						m.Recv(north, 200)
					}
					if west >= 0 {
						m.Recv(west, 201)
					}
					m.Compute(blockCompute)
					if south >= 0 {
						m.Send(south, 200, lineX)
					}
					if east >= 0 {
						m.Send(east, 201, lineY)
					}
				}
				// Upper-triangular sweep: wavefront from (px-1,py-1).
				m.SetContext(CtxUpperSweep)
				for kb := 0; kb < kBlocks; kb++ {
					if south >= 0 {
						m.Recv(south, 202)
					}
					if east >= 0 {
						m.Recv(east, 203)
					}
					m.Compute(blockCompute)
					if north >= 0 {
						m.Send(north, 202, lineX)
					}
					if west >= 0 {
						m.Send(west, 203, lineY)
					}
				}
				// Jacobi part: halo exchange with every existing
				// neighbour, posted as a group.
				m.SetContext(CtxHalo)
				m.ExchangeGroup(hPeers, 204, hSizes, 1)
				// Residual norms every few steps.
				if it%5 == 0 {
					m.SetContext(CtxResidual)
					m.Allreduce(40)
				}
			}
			m.Finalize()
		},
	}, nil
}

// --- CG ---

// cgSize holds the CG class parameters (matrix order and average non-zeros
// per row).
func cgSize(class Class) (n int, nzPerRow int, full int, err error) {
	switch class {
	case ClassA:
		return 14000, 11, 15, nil
	case ClassB:
		return 75000, 13, 75, nil
	case ClassC:
		return 150000, 15, 75, nil
	case ClassD:
		return 1500000, 21, 100, nil
	}
	return 0, 0, 0, fmt.Errorf("nas: unsupported class %q", string(class))
}

// CG builds the Conjugate-Gradient benchmark skeleton: a power-of-two
// process grid running reduce-exchange ladders across process rows plus a
// transpose exchange — the source of the banded matrix of Figure 17a.
func CG(class Class, procs, iters int) (*Workload, error) {
	if !isPow2(procs) {
		return nil, fmt.Errorf("nas: CG requires a power-of-two process count, got %d", procs)
	}
	n, nz, full, err := cgSize(class)
	if err != nil {
		return nil, err
	}
	if iters <= 0 {
		iters = full
	}
	lg := log2int(procs)
	npcols := 1 << uint((lg+1)/2)
	nprows := procs / npcols
	name := fmt.Sprintf("CG.%s", string(class))
	return &Workload{
		Name:      name,
		Procs:     procs,
		Iters:     iters,
		FullIters: full,
		Run: func(m *instrument.MPI) {
			me := m.Rank()
			row, col := me/npcols, me%npcols
			rowsPerProc := n / nprows
			segBytes := int64(8 * rowsPerProc)
			// One outer iteration runs a 25-step CG solve; each step is a
			// SpMV over ~n·nonzer² stored non-zeros plus ~5 vector
			// operations (matching the official NAS operation counts,
			// ≈1.4e11 flops for class C).
			nzTotal := float64(n) * float64(nz) * float64(nz)
			flopsPerIter := (2*nzTotal + 10*float64(n)) * 25 / float64(procs)
			computePerIter := secondsOfFlops(flopsPerIter)

			computePerIter = time.Duration(float64(computePerIter) * jitter(m))
			m.Init()
			for it := 0; it < iters; it++ {
				m.Compute(computePerIter)
				// Reduce-exchange ladder across the process row: partner
				// distance doubles, segment size halves.
				m.SetContext(CtxLadder)
				size := segBytes
				for l := 0; l < log2int(npcols); l++ {
					partner := row*npcols + (col ^ (1 << uint(l)))
					m.Exchange(partner, 300+l, size, 2)
					if size > 64 {
						size /= 2
					}
				}
				// Transpose exchange (square grids only, as in CG).
				m.SetContext(CtxTranspose)
				if npcols == nprows {
					tr := col*npcols + row
					if tr != me {
						m.Exchange(tr, 350, segBytes, 1)
					}
				}
				// rho and norm reductions.
				m.SetContext(CtxResidual)
				m.Allreduce(8)
				m.Allreduce(8)
			}
			m.Finalize()
		},
	}, nil
}

// --- FT ---

// ftGrid returns the FT class grid.
func ftGrid(class Class) (nx, ny, nz, full int, err error) {
	switch class {
	case ClassA:
		return 256, 256, 128, 6, nil
	case ClassB:
		return 512, 256, 256, 20, nil
	case ClassC:
		return 512, 512, 512, 20, nil
	case ClassD:
		return 2048, 1024, 1024, 25, nil
	}
	return 0, 0, 0, 0, fmt.Errorf("nas: unsupported class %q", string(class))
}

// FT builds the 3-D FFT benchmark skeleton: per timestep, transpose-based
// FFTs drive two all-to-all exchanges plus a checksum reduction.
func FT(class Class, procs, iters int) (*Workload, error) {
	nx, ny, nz, full, err := ftGrid(class)
	if err != nil {
		return nil, err
	}
	if iters <= 0 {
		iters = full
	}
	total := float64(nx) * float64(ny) * float64(nz)
	name := fmt.Sprintf("FT.%s", string(class))
	return &Workload{
		Name:      name,
		Procs:     procs,
		Iters:     iters,
		FullIters: full,
		Run: func(m *instrument.MPI) {
			p := m.Size()
			me := m.Rank()
			m.Init()
			// 2-D pencil decomposition: transposes are all-to-alls within
			// process rows and columns (the real FT communicator layout),
			// built with MPI_Comm_split after init.
			p1, p2 := grid2D(p)
			row := m.Split(me/p2, me%p2) // p2 ranks per row comm
			col := m.Split(me%p2, me/p2) // p1 ranks per column comm
			// Each transpose moves the whole local array once, split over
			// the transpose communicator (complex doubles: 16 B/point).
			localBytes := 16 * total / float64(p)
			rowPair := int64(localBytes / float64(p2) / float64(p2))
			colPair := int64(localBytes / float64(p1) / float64(p1))
			if rowPair < 1 {
				rowPair = 1
			}
			if colPair < 1 {
				colPair = 1
			}
			flopsPerIter := 5 * total * math.Log2(total) / float64(p)
			computePerIter := secondsOfFlops(flopsPerIter)
			computePerIter = time.Duration(float64(computePerIter) * jitter(m))
			for it := 0; it < iters; it++ {
				m.Compute(computePerIter / 3)
				m.SetContext(CtxTransposeFFT)
				row.SetContext(CtxTransposeFFT)
				col.SetContext(CtxTransposeFFT)
				row.Alltoall(rowPair)
				m.Compute(computePerIter / 3)
				col.Alltoall(colPair)
				m.Compute(computePerIter / 3)
				// Checksum.
				m.SetContext(CtxResidual)
				m.Allreduce(16)
			}
			m.Finalize()
		},
	}, nil
}

// --- EulerMHD ---

// EulerMHD builds the skeleton of the paper's C++ MHD application: a 2-D
// Cartesian mesh solving ideal MHD at high order — 9 conserved fields,
// two ghost layers, a global dt reduction per step and periodic
// diagnostics output.
func EulerMHD(procs, iters int) (*Workload, error) {
	const (
		nx, ny  = 4096, 4096
		fields  = 9
		ghosts  = 2
		fullIts = 200
	)
	if iters <= 0 {
		iters = fullIts
	}
	px, py := grid2D(procs)
	return &Workload{
		Name:      "EulerMHD",
		Procs:     procs,
		Iters:     iters,
		FullIters: fullIts,
		Run: func(m *instrument.MPI) {
			me := m.Rank()
			i, j := me/py, me%py
			lx, ly := chunk(nx, px, i), chunk(ny, py, j)
			faceX := int64(8 * fields * ghosts * ly)
			faceY := int64(8 * fields * ghosts * lx)
			// High-order MHD: expensive per-point update.
			computePerIter := secondsOfFlops(15000 * float64(lx) * float64(ly))
			computePerIter = time.Duration(float64(computePerIter) * jitter(m))
			north, south, west, east := -1, -1, -1, -1
			if i > 0 {
				north = (i-1)*py + j
			}
			if i < px-1 {
				south = (i+1)*py + j
			}
			if j > 0 {
				west = i*py + (j - 1)
			}
			if j < py-1 {
				east = i*py + (j + 1)
			}
			var hPeers []int
			var hSizes []int64
			if north >= 0 {
				hPeers, hSizes = append(hPeers, north), append(hSizes, faceX)
			}
			if south >= 0 {
				hPeers, hSizes = append(hPeers, south), append(hSizes, faceX)
			}
			if west >= 0 {
				hPeers, hSizes = append(hPeers, west), append(hSizes, faceY)
			}
			if east >= 0 {
				hPeers, hSizes = append(hPeers, east), append(hSizes, faceY)
			}
			m.Init()
			for it := 0; it < iters; it++ {
				m.SetContext(CtxHalo)
				m.ExchangeGroup(hPeers, 400, hSizes, 2)
				m.Compute(computePerIter)
				// Global dt.
				m.SetContext(CtxResidual)
				m.Allreduce(8)
				// Diagnostics dump every 10 steps.
				if it%10 == 9 {
					m.SetContext(CtxDiagnostics)
					m.PosixWrite(int64(8*fields*lx*ly/64), 100*time.Microsecond)
				}
			}
			m.Finalize()
		},
	}, nil
}

// ByName builds a workload from a benchmark name like "BT", "cg", or
// "EulerMHD". class is ignored for EulerMHD.
func ByName(kind string, class Class, procs, iters int) (*Workload, error) {
	switch kind {
	case "BT", "bt":
		return BT(class, procs, iters)
	case "SP", "sp":
		return SP(class, procs, iters)
	case "LU", "lu":
		return LU(class, procs, iters)
	case "CG", "cg":
		return CG(class, procs, iters)
	case "FT", "ft":
		return FT(class, procs, iters)
	case "MG", "mg":
		return MG(class, procs, iters)
	case "EP", "ep":
		return EP(class, procs, iters)
	case "IS", "is":
		return IS(class, procs, iters)
	case "EulerMHD", "eulermhd", "euler":
		return EulerMHD(procs, iters)
	}
	return nil, fmt.Errorf("nas: unknown benchmark %q", kind)
}

// ValidProcs adjusts a requested process count to the nearest count the
// benchmark accepts (square for BT/SP, power of two for CG, any for the
// rest).
func ValidProcs(kind string, procs int) int {
	switch kind {
	case "BT", "bt", "SP", "sp":
		q := int(math.Round(math.Sqrt(float64(procs))))
		if q < 1 {
			q = 1
		}
		return q * q
	case "CG", "cg", "MG", "mg", "IS", "is":
		p := 1
		for p*2 <= procs {
			p *= 2
		}
		return p
	default:
		if procs < 1 {
			return 1
		}
		return procs
	}
}
