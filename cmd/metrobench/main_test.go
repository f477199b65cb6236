package main_test

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metro/internal/clitest"
)

// TestSnapshotWritten runs a minimal benchmark sweep and checks the
// perf-trajectory contract: BENCH_<n>.json appears with parsed
// results, and a second run appends the next index rather than
// clobbering the first.
func TestSnapshotWritten(t *testing.T) {
	if testing.Short() {
		t.Skip("execs go test as a subprocess; skipped in -short mode")
	}
	dir := t.TempDir()
	args := []string{"-bench", "RecorderSteadyState", "-benchtime", "5x",
		"-pkgs", "metro/internal/telemetry", "-dir", dir}
	out := clitest.Run(t, "metrobench", args...)
	if !strings.Contains(string(out), "BENCH_1.json") {
		t.Fatalf("first run did not report BENCH_1.json:\n%s", out)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Index      int    `json:"index"`
		GoVersion  string `json:"go_version"`
		Benchmarks []struct {
			Name     string  `json:"name"`
			Package  string  `json:"package"`
			NsPerOp  float64 `json:"ns_per_op"`
			AllocsOp int64   `json:"allocs_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Index != 1 || snap.GoVersion == "" || len(snap.Benchmarks) == 0 {
		t.Fatalf("snapshot incomplete: %+v", snap)
	}
	b := snap.Benchmarks[0]
	if !strings.HasPrefix(b.Name, "BenchmarkRecorderSteadyState") ||
		b.Package != "metro/internal/telemetry" || b.NsPerOp <= 0 {
		t.Fatalf("parsed benchmark wrong: %+v", b)
	}
	if b.AllocsOp != 0 {
		t.Errorf("recorder steady state allocates: %+v", b)
	}

	clitest.Run(t, "metrobench", args...)
	if _, err := os.Stat(filepath.Join(dir, "BENCH_2.json")); err != nil {
		t.Fatalf("second run did not append BENCH_2.json: %v", err)
	}
}

// TestMetricsOverheadRecorded runs the congested-step pair with and
// without the operational-metrics block and checks the snapshot
// derives metrics_overhead from it.
func TestMetricsOverheadRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("execs go test as a subprocess; skipped in -short mode")
	}
	dir := t.TempDir()
	out := clitest.Run(t, "metrobench", "-bench", "CongestedStep$|CongestedStepMetrics$",
		"-benchtime", "5x", "-pkgs", "metro/internal/netsim", "-dir", dir)
	if !strings.Contains(string(out), "metrics overhead:") {
		t.Fatalf("report does not summarize the metrics overhead:\n%s", out)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Metrics *struct {
			Disabled float64 `json:"disabled_ns_per_cycle"`
			Enabled  float64 `json:"enabled_ns_per_cycle"`
		} `json:"metrics_overhead"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Metrics == nil || snap.Metrics.Disabled <= 0 || snap.Metrics.Enabled <= 0 {
		t.Fatalf("metrics_overhead missing or incomplete: %+v", snap.Metrics)
	}
}

// TestFailureModes pins the exit codes: 2 for misuse, 1 when nothing
// matched (an empty snapshot would poison the trajectory silently).
func TestFailureModes(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	clitest.ExitCode(t, 2, "metrobench", "stray-arg")
	clitest.ExitCode(t, 1, "metrobench", "-bench", "NoSuchBenchmarkAnywhere",
		"-benchtime", "1x", "-pkgs", "metro/internal/telemetry", "-dir", t.TempDir())
}

// TestStdoutIsOneJSONDocument: under -stdout the snapshot is all that
// stdout carries, so `metrobench -stdout | jq` parses it; the human
// summary goes to stderr.
func TestStdoutIsOneJSONDocument(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	out := clitest.Stdout(t, "metrobench", "-bench", "none", "-scale", "64",
		"-scale-cycles", "64", "-scale-workers", "1", "-stdout")
	dec := json.NewDecoder(bytes.NewReader(out))
	var snap struct {
		Scale []struct {
			Endpoints int `json:"endpoints"`
		} `json:"scale"`
	}
	if err := dec.Decode(&snap); err != nil {
		t.Fatalf("stdout is not a JSON document: %v\n%s", err, out)
	}
	if len(snap.Scale) != 1 || snap.Scale[0].Endpoints != 64 {
		t.Fatalf("snapshot incomplete: %+v", snap)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("stdout carries more than the snapshot (%v):\n%s", err, out)
	}
}

// TestScaleSnapshotAndOverwriteGuard runs a scale-only snapshot (no
// benchmark subprocess) on a tiny kernel network, pins the recorded
// curve fields, and checks the overwrite contract: re-writing a pinned
// index fails without -force and succeeds with it.
func TestScaleSnapshotAndOverwriteGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	dir := t.TempDir()
	args := []string{"-bench", "none", "-scale", "16", "-scale-cycles", "8",
		"-scale-workers", "0,2", "-index", "3", "-dir", dir}
	clitest.Run(t, "metrobench", args...)
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Index int `json:"index"`
		Scale []struct {
			Endpoints int     `json:"endpoints"`
			Radix     int     `json:"radix"`
			Routers   int     `json:"routers"`
			Workers   int     `json:"workers"`
			Cycles    uint64  `json:"cycles"`
			NsPerCyc  float64 `json:"ns_per_cycle"`
		} `json:"scale"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Index != 3 || len(snap.Scale) != 2 {
		t.Fatalf("snapshot incomplete: %+v", snap)
	}
	for i, p := range snap.Scale {
		if p.Endpoints != 16 || p.Radix != 4 || p.Routers == 0 ||
			p.Cycles != 8 || p.NsPerCyc <= 0 {
			t.Fatalf("scale point %d wrong: %+v", i, p)
		}
	}
	if snap.Scale[0].Workers != 0 || snap.Scale[1].Workers != 2 {
		t.Fatalf("worker sweep wrong: %+v", snap.Scale)
	}

	// Same pinned index again: refused without -force, honored with it.
	out := clitest.ExitCode(t, 1, "metrobench", args...)
	if !strings.Contains(string(out), "-force") {
		t.Fatalf("overwrite refusal does not mention -force:\n%s", out)
	}
	clitest.Run(t, "metrobench", append(args, "-force")...)

	// -bench none with no -scale would write an empty snapshot: misuse.
	clitest.ExitCode(t, 2, "metrobench", "-bench", "none", "-dir", dir)
}
