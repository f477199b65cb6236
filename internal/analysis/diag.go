package analysis

// ruleIDs maps each analyzer name to its stable diagnostic ID, in the
// order the rules were introduced. Append-only: never renumber. Retired
// numbers are never reused: MV004 was clocked-mutation, retired when the
// catch matrix showed eval-isolation and shard-purity flag every call of
// an exported mutator from another component's Eval, leaving it only
// declarations the schedule allows; MV009 was shard-purity, retired when
// eval-isolation was rebuilt on its prover, whose every finding the old
// eval-isolation also reported; MV011 was provable-bounds, retired when
// the -bce gate was found to cover every line it flagged.
var ruleIDs = map[string]string{
	"no-wallclock":           "MV001",
	"no-global-rand":         "MV002",
	"ordered-map-iteration":  "MV003",
	"invariant-coverage":     "MV005",
	"exhaustive-enum-switch": "MV006",
	"hot-path-alloc":         "MV007",
	"eval-isolation":         "MV008",
	"truncating-conversion":  "MV010",
	"width-contract":         "MV012",
}

// RuleID returns the stable MVnnn ID for a rule name ("MV000" for a rule
// the table does not know, which the release test treats as an error).
func RuleID(rule string) string {
	if id, ok := ruleIDs[rule]; ok {
		return id
	}
	return "MV000"
}
