package main_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"metro/internal/clitest"
	"metro/internal/telemetry"
)

// recordSample records the reference scenario (one Figure 1 load point,
// no warmup, fixed seed) with metrosim -trace into dir and returns the
// trace path. Recording is a pure function of the flags, so every test
// that starts from this scenario sees the identical byte stream.
func recordSample(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "sample.mtr")
	clitest.Run(t, "metrosim",
		"-network", "fig1", "-loads", "0.5", "-cycles", "600", "-warmup", "0", "-seed", "7", "-trace", path)
	return path
}

// TestGoldenSummarize pins the summarize report — event counts, the
// per-stage connection table and the per-message latency breakdown —
// for the reference scenario. This is the golden that pins the
// latency-breakdown numbers the observability layer exists to expose.
func TestGoldenSummarize(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	path := recordSample(t, t.TempDir())
	clitest.GoldenBytes(t, "summarize", clitest.Run(t, "metrotrace", "summarize", path))
}

// TestGoldenFilter pins filter output: one message's lifecycle as an
// mtr1 stream, demonstrating filters compose with the codec.
func TestGoldenFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	path := recordSample(t, t.TempDir())
	clitest.GoldenBytes(t, "filter", clitest.Run(t, "metrotrace", "filter", "-msg", "3", path))
}

// TestGoldenCSV pins the CSV latency-histogram export.
func TestGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	path := recordSample(t, t.TempDir())
	clitest.GoldenBytes(t, "csv",
		clitest.Run(t, "metrotrace", "export", "-format", "csv", "-buckets", "4", path))
}

// TestRecordDeterministic re-records the reference scenario and
// demands byte-identical traces: `metrosim -trace` is a replay tool, so
// two runs of the same flags must be the same experiment.
func TestRecordDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	a, err := os.ReadFile(recordSample(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(recordSample(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("recording the same scenario twice produced different traces")
	}
}

// TestPerfettoExportParses checks the end-to-end perfetto path: the
// exported JSON must parse and carry a non-empty traceEvents array.
// (The structural schema contract lives in internal/telemetry's tests;
// this pins the CLI plumbing.)
func TestPerfettoExportParses(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	path := recordSample(t, t.TempDir())
	out := clitest.Run(t, "metrotrace", "export", "-format", "perfetto", path)
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &f); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("perfetto export carries no events")
	}
}

// TestFilterOutputDecodes checks a family filter round-trips through
// the codec and keeps only the requested family.
func TestFilterOutputDecodes(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	path := recordSample(t, t.TempDir())
	out := clitest.Run(t, "metrotrace", "filter", "-family", "conn", path)
	tr, err := telemetry.Decode(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("filter output does not decode: %v", err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("conn filter kept no events")
	}
	for _, e := range tr.Events {
		if e.Kind.Family() != "conn" {
			t.Fatalf("conn filter leaked a %v event", e.Kind)
		}
	}
}

// TestUsageErrors pins exit code 2 for misuse: scripts distinguish
// "trace problem" (1) from "bad invocation" (2).
func TestUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	clitest.ExitCode(t, 2, "metrotrace")
	clitest.ExitCode(t, 2, "metrotrace", "frobnicate")
	clitest.ExitCode(t, 2, "metrotrace", "record")
	clitest.ExitCode(t, 2, "metrotrace", "summarize")
	clitest.ExitCode(t, 1, "metrotrace", "summarize", "no-such-file.mtr")
	clitest.ExitCode(t, 2, "metrotrace", "export", "-format", "bogus", "whatever.mtr")
	// A bucket count below 1 is refused before the trace is read.
	for _, n := range []string{"0", "-2"} {
		out := clitest.ExitCode(t, 2, "metrotrace", "export", "-format", "csv", "-buckets", n, "whatever.mtr")
		if bytes.Count(out, []byte("\n")) != 1 || !bytes.Contains(out, []byte("-buckets")) {
			t.Errorf("export -buckets %s: want one line naming -buckets, got:\n%s", n, out)
		}
	}
}
