// Package badtypes is a fixture that does not type-check: metrovet must
// print the diagnostic and exit 2 instead of running its rules blind.
// Like badpkg it sits under testdata, so only an explicit pattern
// reaches it.
package badtypes

// Gadget's Eval writes package state, which eval-isolation would flag
// if the run got that far.
type Gadget struct{}

var hits int = "many"

func (g *Gadget) Eval(cycle uint64) { hits++ }

func (g *Gadget) Commit(cycle uint64) {}
