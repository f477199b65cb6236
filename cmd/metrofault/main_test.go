package main_test

import (
	"path/filepath"
	"testing"

	"metro/internal/clitest"
)

// TestGoldenDegradation pins a short router-kill degradation sweep:
// the graceful-degradation table is the experiment backing the paper's
// fault-tolerance claim, so its numbers must stay reproducible.
func TestGoldenDegradation(t *testing.T) {
	clitest.Golden(t, "degradation", "metrofault",
		"-counts", "0,1", "-measure", "1500", "-window", "500", "-warmup", "300")
}

// TestGoldenTraceSummary pins the telemetry summary of the highest-
// count point of a short router-kill sweep: the tool writes it with
// -trace and metrotrace summarize renders it.
func TestGoldenTraceSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "faults.mtr1")
	clitest.Run(t, "metrofault",
		"-counts", "0,1", "-measure", "1500", "-window", "500", "-warmup", "300", "-trace", path)
	clitest.GoldenBytes(t, "summary", clitest.Run(t, "metrotrace", "summarize", path))
}

// TestRejectsBadFlags checks the fault kind, counts and load before
// anything runs: a value the tool cannot serve exits 2 with one line
// naming the flag.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-kind", "bogus", "-counts", "0"},
		{"-kind", "bogus"},
		{"-counts", "x"},
		{"-counts", "0,-1"},
		{"-counts", "1000", "-measure", "100", "-window", "100", "-warmup", "100"},
		{"-counts", "0,1000", "-kind", "link"},
		{"-load", "-1"},
		{"-load", "0"},
		{"-load", "1.5"},
		{"-load", "NaN"},
		{"-bytes", "-1", "-counts", "0", "-measure", "200", "-window", "100", "-warmup", "100"},
	} {
		clitest.Rejects(t, "metrofault", args...)
	}
}
