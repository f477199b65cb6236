package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

func diagFixtureFindings() []Finding {
	mk := func(file string, line, col int, rule, msg string) Finding {
		return Finding{
			Pos:  token.Position{Filename: file, Line: line, Column: col},
			Rule: rule,
			Msg:  msg,
		}
	}
	return []Finding{
		mk("internal/core/router.go", 42, 7, "eval-isolation", "write to package-level state total"),
		mk("internal/core/router.go", 42, 3, "hot-path-alloc", "make allocates"),
		mk("internal/nic/endpoint.go", 9, 1, "no-wallclock", "time.Now in simulator code"),
	}
}

func TestEveryAnalyzerHasStableID(t *testing.T) {
	seen := map[string]string{}
	for _, a := range Analyzers() {
		id := RuleID(a.Name)
		if id == "MV000" {
			t.Errorf("analyzer %q has no MVnnn entry in ruleIDs", a.Name)
		}
		if prev, dup := seen[id]; dup {
			t.Errorf("ID %s assigned to both %q and %q", id, prev, a.Name)
		}
		seen[id] = a.Name
	}
	// Retired numbers are never reused.
	for _, retired := range []string{"MV004", "MV009", "MV011"} {
		if name, ok := seen[retired]; ok {
			t.Errorf("retired ID %s reused by %q", retired, name)
		}
	}
}

func TestSortFindingsDeterministic(t *testing.T) {
	fs := diagFixtureFindings()
	SortFindings(fs)
	// Same file and line sort by column; files sort lexically.
	want := []struct {
		file string
		col  int
	}{
		{"internal/core/router.go", 3},
		{"internal/core/router.go", 7},
		{"internal/nic/endpoint.go", 1},
	}
	for i, w := range want {
		if fs[i].Pos.Filename != w.file || fs[i].Pos.Column != w.col {
			t.Errorf("order[%d] = %s col %d, want %s col %d",
				i, fs[i].Pos.Filename, fs[i].Pos.Column, w.file, w.col)
		}
	}
	// Shuffled input converges to the same order.
	shuffled := []Finding{fs[2], fs[0], fs[1]}
	SortFindings(shuffled)
	for i := range fs {
		if shuffled[i] != fs[i] {
			t.Fatalf("sort is input-order dependent at %d", i)
		}
	}
}

func TestFingerprintLineIndependent(t *testing.T) {
	a := diagFixtureFindings()[0]
	b := a
	b.Pos.Line, b.Pos.Column = 999, 1
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("fingerprint must not depend on position within the file")
	}
	c := a
	c.Msg = "different"
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("fingerprint must depend on the message")
	}
}

func TestEncodeJSONByteStable(t *testing.T) {
	fs := diagFixtureFindings()
	SortFindings(fs)
	var one, two bytes.Buffer
	if err := EncodeJSON(&one, fs); err != nil {
		t.Fatal(err)
	}
	if err := EncodeJSON(&two, fs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Error("EncodeJSON is not byte-stable across calls")
	}
	var doc struct {
		Version  int           `json:"version"`
		Count    int           `json:"count"`
		Findings []FindingJSON `json:"findings"`
	}
	if err := json.Unmarshal(one.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Count != 3 || len(doc.Findings) != 3 {
		t.Fatalf("count = %d, findings = %d, want 3", doc.Count, len(doc.Findings))
	}
	if doc.Findings[0].ID != "MV007" || doc.Findings[0].Col != 3 {
		t.Errorf("first finding = %+v, want MV007 at col 3", doc.Findings[0])
	}
	if doc.Findings[0].Fingerprint == "" {
		t.Error("fingerprint missing from JSON finding")
	}

	// Empty finding lists render an empty array, not null.
	one.Reset()
	if err := EncodeJSON(&one, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(one.String(), "null") {
		t.Errorf("empty report must not contain null:\n%s", one.String())
	}
}
