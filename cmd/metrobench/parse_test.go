package main

import "testing"

// TestParseMinOfRepeatedRuns pins the -count aggregation: repeated
// runs keep the minimum ns/op (contention noise is one-sided) while
// the memory columns are averaged.
func TestParseMinOfRepeatedRuns(t *testing.T) {
	out := `goos: linux
pkg: metro/internal/netsim
BenchmarkCongestedStep-2   	     100	       300 ns/op	      16 B/op	       2 allocs/op
BenchmarkCongestedStep-2   	     100	       200 ns/op	      16 B/op	       2 allocs/op
BenchmarkCongestedStep-2   	     100	       250 ns/op	      16 B/op	       2 allocs/op
PASS
`
	bs := parse(out)
	if len(bs) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1: %+v", len(bs), bs)
	}
	b := bs[0]
	if b.Name != "BenchmarkCongestedStep-2" || b.Package != "metro/internal/netsim" {
		t.Fatalf("identity wrong: %+v", b)
	}
	if b.NsPerOp != 200 {
		t.Errorf("ns/op = %v, want the minimum 200", b.NsPerOp)
	}
	if b.BytesPerOp != 16 || b.AllocsOp != 2 || b.Iterations != 100 {
		t.Errorf("memory/iteration columns wrong: %+v", b)
	}
}

// TestOverheadDerivations pins the tracing and metrics pairings and
// their absence when either half is missing.
func TestOverheadDerivations(t *testing.T) {
	bs := []Benchmark{
		{Name: "BenchmarkCongestedStep-2", NsPerOp: 1000},
		{Name: "BenchmarkCongestedStepTraced-2", NsPerOp: 1100},
		{Name: "BenchmarkCongestedStepMetrics-2", NsPerOp: 1010},
	}
	const traced, metrics = "BenchmarkCongestedStepTraced", "BenchmarkCongestedStepMetrics"
	tr := overhead(bs, traced)
	if tr == nil || tr.OverheadPct < 9.9 || tr.OverheadPct > 10.1 {
		t.Errorf("tracing overhead wrong: %+v", tr)
	}
	mo := overhead(bs, metrics)
	if mo == nil || mo.OverheadPct < 0.9 || mo.OverheadPct > 1.1 {
		t.Errorf("metrics overhead wrong: %+v", mo)
	}
	if overhead(bs[:2], metrics) != nil {
		t.Error("metrics overhead derived without the Metrics half")
	}
	if overhead(bs[:1], traced) != nil {
		t.Error("tracing overhead derived without the Traced half")
	}
}
