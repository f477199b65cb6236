package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Add(v)
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %f", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %f/%f", s.Min(), s.Max())
	}
	if s.Percentile(50) != 3 {
		t.Fatalf("P50 = %f", s.Percentile(50))
	}
	if math.Abs(s.StdDev()-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("StdDev = %f", s.StdDev())
	}
}

func TestEmptySampleSafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample should report zeros")
	}
	sum := s.Summarize()
	if sum.Count != 0 {
		t.Fatal("empty summary count")
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(vals []float64, p float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		var s Sample
		for _, v := range vals {
			s.Add(v)
		}
		pp := math.Mod(math.Abs(p), 100)
		got := s.Percentile(pp)
		return got >= s.Min() && got <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileMonotone(t *testing.T) {
	var s Sample
	for i := 0; i < 100; i++ {
		s.Add(float64(i))
	}
	prev := s.Percentile(0)
	for p := 5.0; p <= 100; p += 5 {
		cur := s.Percentile(p)
		if cur < prev {
			t.Fatalf("percentile not monotone at %f: %f < %f", p, cur, prev)
		}
		prev = cur
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Header: []string{"name", "value"}}
	tab.Add("alpha", "1")
	tab.Add("beta", "2.50")
	out := tab.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.50") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	// Columns align: every line has the same prefix width before col 2.
	idx := strings.Index(lines[0], "value")
	if idx < 0 || !strings.Contains(lines[2][idx:], "1") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestTableNoHeader(t *testing.T) {
	var tab Table
	tab.Add("x", "y")
	out := tab.String()
	if strings.Contains(out, "--") {
		t.Fatalf("headerless table should have no separator:\n%s", out)
	}
}

func TestHistogramRendering(t *testing.T) {
	var s Sample
	for i := 0; i < 100; i++ {
		s.Add(float64(i % 10))
	}
	out := s.Histogram(5, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("histogram lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("no bars rendered:\n%s", out)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var empty Sample
	if got := empty.Histogram(4, 10); !strings.Contains(got, "no samples") {
		t.Errorf("empty histogram = %q", got)
	}
	var constant Sample
	constant.Add(5)
	constant.Add(5)
	if got := constant.Histogram(4, 10); !strings.Contains(got, "all 2 samples") {
		t.Errorf("constant histogram = %q", got)
	}
}
