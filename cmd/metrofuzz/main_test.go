package main_test

import (
	"path/filepath"
	"testing"

	"metro/internal/clitest"
)

// TestGoldenEnsemble pins the -v ensemble listing and the oracle
// summary table for a tiny fixed-seed run. Shrinking is disabled so a
// regression in any oracle fails the golden diff directly rather than
// spending the time budget minimizing it.
func TestGoldenEnsemble(t *testing.T) {
	clitest.Golden(t, "ensemble", "metrofuzz", "-seeds", "3", "-shrink=false", "-v")
}

// TestReplayRejectsBadSpec pins the documented exit code 2 for a spec
// the decoder refuses — scripts drive the replay path and distinguish
// "scenario failed" (1) from "spec malformed" (2).
func TestReplayRejectsBadSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	clitest.ExitCode(t, 2, "metrofuzz", "-replay", "mf9;nonsense")
}

// TestGoldenTraceSummary pins the telemetry summary of seed 1's primary
// leg: the tool writes it with -trace and metrotrace summarize renders
// it.
func TestGoldenTraceSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "seed1.mtr1")
	clitest.Run(t, "metrofuzz", "-seed", "1", "-shrink=false", "-trace", path)
	clitest.GoldenBytes(t, "summary", clitest.Run(t, "metrotrace", "summarize", path))
}
