package bench

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// Median returns the median of vs (0 for an empty sample). vs is not
// modified.
func Median(vs []float64) float64 { return Percentile(vs, 50) }

// Percentile returns the p-th percentile (0..100) of vs by linear
// interpolation between order statistics (0 for an empty sample). vs is
// not modified.
func Percentile(vs []float64, p float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s[n-1]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// Quartiles returns the first and third quartile of vs as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method),
// which is what the benchmark's acceptance rule is stated in. It needs
// at least two values.
func Quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		if n == 1 {
			return vs[0], vs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// The i-th of 4 cut points over n values, exclusive method.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// Normalise converts a raw duration measured between two reference
// kernel runs of the given durations into the time the same work would
// take on a machine that runs the reference kernel in exactly
// RefNominalS.
func Normalise(raw, refBefore, refAfter time.Duration) float64 {
	ref := (refBefore.Seconds() + refAfter.Seconds()) / 2
	if ref <= 0 {
		return raw.Seconds()
	}
	return raw.Seconds() * RefNominalS / ref
}

// CPUTime returns the process's user+system CPU time so far.
func CPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}
