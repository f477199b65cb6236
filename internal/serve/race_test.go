//go:build race

package serve

// raceEnabled reports that the race detector is active. Allocation
// budgets are skipped under -race: the instrumentation inflates
// allocation counts, so the gate would fail for reasons unrelated to the
// service.
const raceEnabled = true
