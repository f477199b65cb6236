package main_test

import (
	"path/filepath"
	"testing"

	"metro/internal/clitest"
)

// TestGoldenSweep pins a small fixed-seed load sweep on the Figure 1
// network: the load/latency table is the tool's primary output, and the
// simulator's determinism contract means every cell is reproducible
// bit-for-bit.
func TestGoldenSweep(t *testing.T) {
	clitest.Golden(t, "sweep", "metrosim",
		"-network", "fig1", "-loads", "0.1,0.4", "-cycles", "800", "-warmup", "200")
}

// TestGoldenTraceSummary pins the telemetry summary of the recorded
// load point of a one-point Figure 1 sweep: the tool writes it with
// -trace and metrotrace summarize renders it.
func TestGoldenTraceSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "sweep.mtr1")
	clitest.Run(t, "metrosim",
		"-network", "fig1", "-loads", "0.4", "-cycles", "800", "-warmup", "200", "-trace", path)
	clitest.GoldenBytes(t, "summary", clitest.Run(t, "metrotrace", "summarize", path))
}
