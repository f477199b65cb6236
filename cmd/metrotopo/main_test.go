package main_test

import (
	"testing"

	"metro/internal/clitest"
)

// TestGolden pins the topology explorer's three views of the Figure 1
// network: the stage table, path enumeration between an endpoint pair,
// and the fault-survivability sweep.
func TestGolden(t *testing.T) {
	t.Run("describe", func(t *testing.T) {
		clitest.Golden(t, "describe", "metrotopo")
	})
	t.Run("paths", func(t *testing.T) {
		clitest.Golden(t, "paths", "metrotopo", "-paths", "6,15")
	})
	t.Run("survive", func(t *testing.T) {
		clitest.Golden(t, "survive", "metrotopo", "-survive")
	})
}

// TestRejectsBadFlags checks the network, wiring and endpoint pair
// before anything runs: a value the tool cannot serve exits 2 with one
// line naming the flag.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-paths", "x,y"},
		{"-paths", "0,999"},
		{"-paths", "-1,3"},
		{"-paths", "1"},
		{"-wiring", "bogus"},
		{"-network", "bogus"},
	} {
		clitest.Rejects(t, "metrotopo", args...)
	}
}
