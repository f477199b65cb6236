package main_test

import (
	"testing"

	"metro/internal/clitest"
)

// TestGoldenLocalization pins the default scan-based fault-localization
// narrative end to end: inject, localize to a stage, isolate the faulty
// port pairs, mask, and verify. The suspect listing is sorted before
// printing, so the whole transcript is deterministic.
func TestGoldenLocalization(t *testing.T) {
	clitest.Golden(t, "localize", "metroscan")
}

// TestRejectsBadFlags checks the fault location and bit before anything
// runs: a value the tool cannot serve exits 2 with one line naming the
// flag.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-stage", "-1"},
		{"-stage", "3"},
		{"-router", "-1"},
		{"-router", "99"},
		{"-bit", "8"},
	} {
		clitest.Rejects(t, "metroscan", args...)
	}
}
