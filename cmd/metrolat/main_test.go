package main_test

import (
	"testing"

	"metro/internal/clitest"
)

// TestGoldenTables pins the three paper-reproduction tables: any drift
// in the analytic latency model or the table formatting shows up as a
// golden diff against the published numbers.
func TestGoldenTables(t *testing.T) {
	for _, table := range []string{"3", "4", "5"} {
		t.Run("table"+table, func(t *testing.T) {
			clitest.Golden(t, "table"+table, "metrolat", "-table", table)
		})
	}
}

// TestRejectsBadFlags checks the scale and message size before anything
// runs: a value the tool cannot serve exits 2 with one line naming the
// flag.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "12"},
		{"-scale", "4"},
		{"-scale", "-8"},
		{"-bytes", "-1"},
	} {
		clitest.Rejects(t, "metrolat", args...)
	}
}
