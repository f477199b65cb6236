// Package examples_test pins the output of every program under examples/:
// each is seeded and deterministic, so a change to any simulated bit it
// reports shows up here. Rewrite the goldens with
// `go test ./examples -update` after an intentional change.
package examples_test

import (
	"testing"

	"metro/internal/clitest"
)

func TestGoldenExamples(t *testing.T) {
	for _, name := range []string{"dsm", "faulttolerant", "loadcurve", "preemption", "quickstart", "widepath"} {
		t.Run(name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("execs a subprocess; skipped in -short mode")
			}
			clitest.GoldenBytes(t, name, clitest.RunMain(t, "metro/examples/"+name))
		})
	}
}
