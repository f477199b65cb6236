//go:build !race

package serve

// raceEnabled reports that the race detector is not active, so the
// allocation budgets run.
const raceEnabled = false
