package analysis

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
)

// This file is the machine-readable diagnostics backbone: stable finding
// IDs, content fingerprints, and the byte-stable -json encoding. Two
// invariants matter here:
//
//   - Rule IDs are append-only. MVnnn numbers are wire format — editors,
//     CI annotations and dashboards key on them — so a renamed or deleted
//     rule keeps (retires) its number and a new rule takes the next one.
//   - Encoders are deterministic byte for byte for a given finding list:
//     fixed field order (structs, never maps), fixed indentation, sorted
//     inputs. The golden CLI tests pin the exact bytes.

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

// Fingerprint returns the line-independent identity of a finding as a
// 16-hex-digit FNV-1a hash of (file, rule, message), so a finding keeps
// its fingerprint when unrelated edits above it move its line number.
func Fingerprint(f Finding) string {
	h := fnv.New64a()
	io.WriteString(h, f.Pos.Filename)
	io.WriteString(h, "\x00")
	io.WriteString(h, f.Rule)
	io.WriteString(h, "\x00")
	io.WriteString(h, f.Msg)
	return fmt.Sprintf("%016x", h.Sum64())
}

// FindingJSON is the machine-readable form of one finding.
type FindingJSON struct {
	ID          string `json:"id"`
	Rule        string `json:"rule"`
	File        string `json:"file"`
	Line        int    `json:"line"`
	Col         int    `json:"col"`
	Fingerprint string `json:"fingerprint"`
	Message     string `json:"message"`
}

// findingToJSON converts one finding.
func findingToJSON(f Finding) FindingJSON {
	return FindingJSON{
		ID:          RuleID(f.Rule),
		Rule:        f.Rule,
		File:        f.Pos.Filename,
		Line:        f.Pos.Line,
		Col:         f.Pos.Column,
		Fingerprint: Fingerprint(f),
		Message:     f.Msg,
	}
}

// jsonReport is the -json document shape.
type jsonReport struct {
	Version  int           `json:"version"`
	Tool     string        `json:"tool"`
	Count    int           `json:"count"`
	Findings []FindingJSON `json:"findings"`
}

// EncodeJSON writes the findings as the metrovet JSON report. Callers
// must pass findings already sorted (SortFindings); the output is then
// byte-stable.
func EncodeJSON(w io.Writer, fs []Finding) error {
	rep := jsonReport{Version: 1, Tool: "metrovet", Count: len(fs), Findings: []FindingJSON{}}
	for _, f := range fs {
		rep.Findings = append(rep.Findings, findingToJSON(f))
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
