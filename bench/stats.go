package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between closest ranks, the method Python's
// statistics.quantiles(method="inclusive") and numpy use. It returns 0
// for an empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method) gives
// them, because that is the rule the acceptance driver applies to
// run-to-run spread. Fewer than two values have no spread.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0]
		}
		return 0, 0
	}
	s := sorted(v)
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run (or repetition-to-repetition) noise figure every result
// carries.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// tailPercentile returns the highest of the candidate percentiles that
// still has at least `beyond` samples above it (choosing-metrics guide:
// "the highest percentile that has at least ten samples beyond it"),
// and which percentile that was. With too few samples for any candidate
// it falls back to the median.
func tailPercentile(v []float64, beyond int) (value, p float64) {
	for _, permille := range []int{999, 990, 950, 900, 750} {
		if len(v)*(1000-permille)/1000 >= beyond {
			p = float64(permille) / 10
			return percentile(v, p), p
		}
	}
	return median(v), 50
}

// sampleRing keeps the most recent samples in a buffer allocated once.
// The number of repetitions a time box holds varies from run to run; a
// sample log that grew with it would make the harness's own footprint,
// and so heap_live_mb, vary too.
type sampleRing struct {
	buf []float64
	n   int
}

func newSampleRing(capacity int) *sampleRing { return &sampleRing{buf: make([]float64, capacity)} }

func (r *sampleRing) add(vs ...float64) {
	for _, v := range vs {
		r.buf[r.n%len(r.buf)] = v
		r.n++
	}
}

func (r *sampleRing) values() []float64 {
	if r.n < len(r.buf) {
		return r.buf[:r.n]
	}
	return r.buf
}
