package analysis

import (
	"go/token"
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
