package main_test

import (
	"path/filepath"
	"testing"

	"metro/internal/analysis"
	"metro/internal/clitest"
)

// badpkg is the deliberately non-conforming fixture package. It sits
// under testdata/ so recursive walks (go build, metrovet ./...) never
// see it; only this explicit, module-root-relative pattern reaches it.
const badpkg = "./cmd/metrovet/testdata/src/internal/badpkg"

// TestGoldenRules pins the -rules listing: the rule names are the
// annotation vocabulary (//metrovet:alloc etc.) the rest of the tree
// depends on, so renames must be deliberate.
func TestGoldenRules(t *testing.T) {
	clitest.Golden(t, "rules", "metrovet", "-rules")
}

// TestCleanPackagePasses runs the analyzers on a real package that must
// stay finding-free: a zero-exit, zero-output run is the contract CI's
// whole-tree invocation depends on.
func TestCleanPackagePasses(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	out := clitest.Run(t, "metrovet", "./internal/word")
	if len(out) != 0 {
		t.Fatalf("metrovet reported findings on a clean package:\n%s", out)
	}
}

// TestSelfHost is the self-hosting gate: the analyzer source and its
// driver must satisfy every rule they enforce on the simulator.
func TestSelfHost(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	out := clitest.Run(t, "metrovet", "./internal/analysis", "./cmd/metrovet")
	if len(out) != 0 {
		t.Fatalf("metrovet does not self-host cleanly:\n%s", out)
	}
}

// TestGoldenBadpkgText pins the findings on the fixture package,
// including the findings exit code.
func TestGoldenBadpkgText(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	out := clitest.ExitCode(t, 1, "metrovet", badpkg)
	clitest.GoldenBytes(t, "badpkg-text", out)
}

// BenchmarkMetrovetWholeTree measures the full-repository analysis the
// CI gate runs: load, type-check, and every rule including the
// interprocedural ones. perf/BENCH_11.json records this.
func BenchmarkMetrovetWholeTree(b *testing.B) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := analysis.RunTree(root)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Findings) != 0 {
			b.Fatalf("whole tree is expected to be clean, got %d finding(s)", len(res.Findings))
		}
	}
}
