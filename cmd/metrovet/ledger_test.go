package main_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"metro/internal/analysis"
)

// directiveRE matches a directive as the ledger recipe's sed does, with
// the rule an ignore names.
var directiveRE = regexp.MustCompile(`//metrovet:([a-z]+)(?: ([a-z-]+))?`)

// TestLedgerMatchesValveStrippedRun executes the recipe in
// docs/ANALYZERS.md that produces the ledger: copy the module, turn the
// directive prefix into one metrovet does not parse everywhere outside
// internal/analysis and cmd/metrovet, analyze the copy, and count
// findings by rule. Each rule's ledger row must open its Valves cell with
// the number of directives that can silence the rule (the kinds the
// page's suppression table maps to it, plus ignores naming it), and its
// silenced cell with the number of findings the stripped copy reports,
// and the page's valve total must be the number of directives in the
// tree. A retirement has to reach the page too: a ledger row naming a
// rule metrovet no longer has must be struck through, as MV011's is, and
// a directive kind that silences no live rule must leave the
// suppression table.
func TestLedgerMatchesValveStrippedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes a copy of the whole module; skipped in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	page, err := os.ReadFile(filepath.Join(root, "docs", "ANALYZERS.md"))
	if err != nil {
		t.Fatal(err)
	}
	kindRules, rows, total := parseLedgerPage(t, string(page))

	copyRoot := t.TempDir()
	valves := 0
	directives := map[string]int{} // by kind, and by "ignore <rule>"
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(copyRoot, rel), 0o755)
		}
		if rel != "go.mod" && !strings.HasSuffix(rel, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(rel, ".go") && !strings.HasPrefix(rel, "internal/analysis/") && !strings.HasPrefix(rel, "cmd/metrovet/") {
			for _, m := range directiveRE.FindAllStringSubmatch(string(data), -1) {
				valves++
				directives[m[1]]++
				if m[1] == "ignore" {
					directives["ignore "+m[2]]++
				}
			}
			data = []byte(strings.ReplaceAll(string(data), "//metrovet:", "//metrovet-off:"))
		}
		return os.WriteFile(filepath.Join(copyRoot, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.RunTree(copyRoot, analysis.TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	silenced := map[string]int{}
	for _, f := range res.Findings {
		silenced[f.Rule]++
	}
	if total != valves {
		t.Errorf("the ledger says %d valves in total, the tree has %d", total, valves)
	}

	live := map[string]bool{}
	for _, a := range analysis.Analyzers() {
		live[a.Name] = true
	}
	for name := range rows {
		if !live[name] {
			t.Errorf("the ledger row of `%s` names a rule metrovet no longer has; strike a retired rule through, as MV011's row is", name)
		}
	}
	for kind, rules := range kindRules {
		silences := false
		for name := range rules {
			silences = silences || live[name]
		}
		if !silences && kind != "ignore" {
			t.Errorf("the suppression table's `//metrovet:%s` silences no live rule", kind)
		}
	}

	for _, a := range analysis.Analyzers() {
		id := analysis.RuleID(a.Name)
		valves := directives["ignore "+a.Name]
		for kind, rules := range kindRules {
			if rules[a.Name] {
				valves += directives[kind]
			}
		}
		row, ok := rows[a.Name]
		if !ok {
			t.Errorf("%s %s has no ledger row; the stripped tree has %d valves and %d silenced findings", id, a.Name, valves, silenced[a.Name])
			continue
		}
		if row.valves >= 0 && row.valves != valves {
			t.Errorf("%s %s: the ledger's Valves cell says %d, the tree has %d", id, a.Name, row.valves, valves)
		}
		if row.silenced != silenced[a.Name] {
			t.Errorf("%s %s: the ledger's silenced cell says %d, the stripped tree reports %d", id, a.Name, row.silenced, silenced[a.Name])
		}
	}
	if t.Failed() {
		t.Logf("fresh counts: valves by kind %v; findings by rule %v", directives, silenced)
	}
}

// ledgerRow is what the test reads from one rule's ledger row: the first
// integer of its Valves cell (-1 when the cell opens with none, as a rule
// sharing another's valves does) and of its silenced cell.
type ledgerRow struct{ valves, silenced int }

var (
	ruleCellRE      = regexp.MustCompile("^MV[0-9]{3} `([a-z-]+)`$")
	leadingIntRE    = regexp.MustCompile(`^[0-9]+`)
	directiveCellRE = regexp.MustCompile("^`//metrovet:([a-z]+) ")
	ruleNameRE      = regexp.MustCompile("`([a-z-]+)`")
	valveTotalRE    = regexp.MustCompile(`\(([0-9]+) in total`)
)

// parseLedgerPage reads the suppression-directives table (which rules
// each directive kind silences), the ledger rows not struck through,
// keyed by rule name, and the valve total the ledger's preamble states.
func parseLedgerPage(t *testing.T, page string) (kindRules map[string]map[string]bool, rows map[string]ledgerRow, total int) {
	t.Helper()
	kindRules = map[string]map[string]bool{}
	rows = map[string]ledgerRow{}
	for _, line := range strings.Split(page, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || strings.TrimSpace(cells[0]) != "" {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if m := directiveCellRE.FindStringSubmatch(cells[1]); m != nil && len(cells) == 5 {
			kindRules[m[1]] = map[string]bool{}
			for _, r := range ruleNameRE.FindAllStringSubmatch(cells[3], -1) {
				kindRules[m[1]][r[1]] = true
			}
			continue
		}
		m := ruleCellRE.FindStringSubmatch(cells[1])
		if m == nil || len(cells) != 7 {
			continue
		}
		row := ledgerRow{valves: -1}
		if n := leadingIntRE.FindString(cells[4]); n != "" {
			row.valves, _ = strconv.Atoi(n)
		}
		n := leadingIntRE.FindString(cells[5])
		if n == "" {
			t.Fatalf("ledger row %s: the silenced cell %q opens with no count", m[1], cells[5])
		}
		row.silenced, _ = strconv.Atoi(n)
		rows[m[1]] = row
	}
	m := valveTotalRE.FindStringSubmatch(page)
	if len(kindRules) == 0 || len(rows) == 0 || m == nil {
		t.Fatalf("docs/ANALYZERS.md: found %d directive rows, %d ledger rows and valve total %q; the tables moved", len(kindRules), len(rows), m)
	}
	total, _ = strconv.Atoi(m[1])
	return kindRules, rows, total
}
