// Package stats provides the small statistics toolkit used by the
// experiment harnesses: sample accumulation with percentiles, load-latency
// series, and plain-text table rendering for the regenerated paper tables
// and figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample accumulates scalar observations.
type Sample struct {
	values []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.values) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// StdDev returns the population standard deviation.
func (s *Sample) StdDev() float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, v := range s.values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on the sorted sample.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[n-1]
	}
	rank := int(math.Ceil(p/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return s.values[rank]
}

// Min returns the smallest observation.
func (s *Sample) Min() float64 { return s.Percentile(0) }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.Percentile(100) }

// Summary condenses a sample for reporting.
type Summary struct {
	Count         int
	Mean, StdDev  float64
	Min, P50, P95 float64
	Max           float64
}

// Summarize computes a Summary.
func (s *Sample) Summarize() Summary {
	return Summary{
		Count:  s.Count(),
		Mean:   s.Mean(),
		StdDev: s.StdDev(),
		Min:    s.Min(),
		P50:    s.Percentile(50),
		P95:    s.Percentile(95),
		Max:    s.Max(),
	}
}

// LoadPoint is one point of a load-latency curve (the paper's Figure 3).
type LoadPoint struct {
	// OfferedLoad is the target fraction of injection-channel bandwidth.
	OfferedLoad float64
	// AcceptedLoad is the measured delivered fraction.
	AcceptedLoad float64
	// Latency summarizes injection-to-acknowledgment latency in cycles.
	Latency Summary
	// QueueLatency summarizes creation-to-acknowledgment latency.
	QueueLatency Summary
	// Messages is the number of completed messages measured.
	Messages int
	// Delivered counts successful deliveries among them.
	Delivered int
	// RetriesPerMessage is the mean number of retries.
	RetriesPerMessage float64
}

// Table renders rows of columns with aligned plain-text output, the format
// the benchmark harnesses print.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(row) {
				c = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		sep := make([]string, cols)
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Bucket is one equal-width histogram bin over [Lo, Hi).
type Bucket struct {
	Lo, Hi float64
	Count  int
}

// Buckets partitions the sample range into n equal-width bins and counts
// the samples in each — the data behind Histogram, exposed for exporters
// (CSV histograms, plotting scripts). A degenerate sample (empty, or all
// values equal) returns a single bucket.
func (s *Sample) Buckets(n int) []Bucket {
	if len(s.values) == 0 || n < 1 {
		return nil
	}
	lo, hi := s.Min(), s.Max()
	if hi == lo {
		return []Bucket{{Lo: lo, Hi: hi, Count: len(s.values)}}
	}
	span := (hi - lo) / float64(n)
	out := make([]Bucket, n)
	for i := range out {
		out[i] = Bucket{Lo: lo + float64(i)*span, Hi: lo + float64(i+1)*span}
	}
	for _, v := range s.values {
		b := int((v - lo) / span)
		if b >= n {
			b = n - 1
		}
		out[b].Count++
	}
	return out
}

// Histogram renders the sample's distribution as a fixed-bucket text
// histogram with proportional bars, for terminal experiment output.
func (s *Sample) Histogram(buckets, barWidth int) string {
	bins := s.Buckets(buckets)
	if bins == nil {
		return "(no samples)\n"
	}
	if len(bins) == 1 && bins[0].Lo == bins[0].Hi {
		return fmt.Sprintf("%10.1f  all %d samples\n", bins[0].Lo, bins[0].Count)
	}
	maxCount := 0
	for _, bin := range bins {
		if bin.Count > maxCount {
			maxCount = bin.Count
		}
	}
	var b strings.Builder
	for _, bin := range bins {
		bar := ""
		if maxCount > 0 && barWidth > 0 {
			n := bin.Count * barWidth / maxCount
			if bin.Count > 0 && n == 0 {
				n = 1
			}
			bar = strings.Repeat("#", n)
		}
		fmt.Fprintf(&b, "%10.1f..%-10.1f %6d %s\n", bin.Lo, bin.Hi, bin.Count, bar)
	}
	return b.String()
}
