package bench

import (
	"encoding/binary"
	"sync"
	"time"
)

// The reference kernel is the benchmark's yardstick for machine speed.
// On a shared box the CPU's effective speed drifts by tens of percent on
// a minutes scale, and every raw timing drifts with it; a fixed piece of
// work of the same character as the engine's hot path (varint decode,
// small map and array accumulation) drifts the same way, so a pass time
// divided by the reference time taken right beside it repeats where the
// raw time does not (README, "Noise").
//
// The kernel has two phases, because the engine's work has two
// characters and noisy neighbours slow them differently: one pass over a
// buffer larger than a core's L2 cache, which streams from the shared
// cache like a pack decode, and many passes over a window that stays
// cache-resident, like a fold into small module state. Measured side by
// side, the resident phase alone tracked the ingest workloads best and
// the streaming phase alone the simulation and the query path; their sum
// was never far from the better of the two.
//
// FROZEN: changing anything below (buffer contents, loop, constants)
// changes the unit every normalised metric is expressed in and
// invalidates every recorded number. Engine optimisations must never
// touch it, which is why it uses only the standard library.

// RefNominalS is the reference kernel's nominal duration in seconds: the
// constant that turns a pass/reference ratio back into a time. It is the
// kernel's median on the box the benchmark was defined on, in a quiet
// phase.
const RefNominalS = 0.090

const (
	refBufBytes      = 8 << 20   // streaming phase: one pass over all of it
	refResidentBytes = 192 << 10 // resident phase: a window of the same buffer
	refResidentRuns  = 48
)

var (
	refOnce sync.Once
	refBuf  []byte
)

func buildRefBuf() []byte {
	buf := make([]byte, 0, refBufBytes+binary.MaxVarintLen64)
	x := uint64(0x5eed)
	for len(buf) < refBufBytes {
		x = mix(x)
		// Mostly one- and two-byte varints with the odd long one, like a
		// delta column.
		v := x & 0x7f
		switch (x >> 8) % 8 {
		case 0, 1:
			v = x & 0x3fff
		case 2:
			v = x & 0xffffffff
		}
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// refSink keeps the kernel's result alive.
var refSink uint64

// RefTime is one run of the reference kernel: its wall time, which grows
// with everything that slows the machine, and its CPU time, which leaves
// out the time the hypervisor gave the CPU to somebody else.
type RefTime struct {
	Wall, CPU time.Duration
}

// RefKernel runs the fixed reference work once.
func RefKernel() RefTime {
	refOnce.Do(func() { refBuf = buildRefBuf() })
	cpu0, t0 := CPUTime(), time.Now()
	var hist [64]uint64
	byKey := make(map[uint32]uint64, 64)
	var acc uint64
	decode := func(buf []byte) {
		for len(buf) > 0 {
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				break
			}
			buf = buf[n:]
			acc += v
			hist[v&63] += v
			if v&15 == 0 {
				byKey[uint32(acc&63)] += v
			}
		}
	}
	decode(refBuf)
	for run := 0; run < refResidentRuns; run++ {
		decode(refBuf[:refResidentBytes])
	}
	for _, h := range hist {
		acc += h
	}
	refSink += acc + uint64(len(byKey))
	return RefTime{Wall: time.Since(t0), CPU: CPUTime() - cpu0}
}
