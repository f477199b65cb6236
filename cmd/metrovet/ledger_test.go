package main_test

import (
	"go/ast"
	"go/parser"
	"go/token"
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
// tree. A rule whose silenced cell states "P of C" proven sites must
// match the value-range pass's count of proven and checked sites. A
// retirement has to reach the page too: a ledger row naming a rule
// metrovet no longer has must be struck through, as MV011's is, and a
// directive kind that silences no live rule must leave the suppression
// table. Last, every valve must silence something (see checkDeadValves).
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
	var placed []valve
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
			if placed, err = appendValves(placed, rel, data); err != nil {
				return err
			}
			data = []byte(strings.ReplaceAll(string(data), "//metrovet:", "//metrovet-off:"))
		}
		return os.WriteFile(filepath.Join(copyRoot, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.RunTree(copyRoot)
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
		if sites, ok := res.Sites[a.Name]; ok && (row.proven != sites.Proven || row.checked != sites.Checked) {
			t.Errorf("%s %s: the ledger's proven cell says %d of %d, the pass proves %d of %d", id, a.Name, row.proven, row.checked, sites.Proven, sites.Checked)
		}
	}
	if t.Failed() {
		t.Logf("fresh counts: valves by kind %v; findings by rule %v; proven of checked sites %v", directives, silenced, res.Sites)
	}
	checkDeadValves(t, root, placed, res.Findings, kindRules)
}

// valve is one directive in the tree and the lines it can silence: its
// own and the next for a statement valve, through the end of the
// function for one in a function's doc comment.
type valve struct {
	file       string // module-relative
	line       int
	kind, rule string // rule is the one an ignore names
	lo, hi     int
}

// appendValves appends the directives in one source file to vs.
func appendValves(vs []valve, rel string, src []byte) ([]valve, error) {
	if !strings.Contains(string(src), "//metrovet:") {
		return vs, nil
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, rel, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	docEnd := map[*ast.CommentGroup]int{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
			docEnd[fd.Doc] = fset.Position(fd.End()).Line
		}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := directiveRE.FindStringSubmatch(c.Text)
			if m == nil || !strings.HasPrefix(c.Text, "//metrovet:") {
				continue
			}
			line := fset.Position(c.Pos()).Line
			v := valve{file: rel, line: line, kind: m[1], lo: line, hi: line + 1}
			if v.kind == "ignore" {
				v.rule = m[2]
			}
			if end, ok := docEnd[cg]; ok {
				v.hi = end
			}
			vs = append(vs, v)
		}
	}
	return vs, nil
}

// covers reports whether v sits where it could silence f.
func (v valve) covers(f analysis.Finding, kindRules map[string]map[string]bool) bool {
	return f.Pos.Filename == v.file && v.lo <= f.Pos.Line && f.Pos.Line <= v.hi && v.silences(f.Rule, kindRules)
}

// silences reports whether v's kind can silence rule.
func (v valve) silences(rule string, kindRules map[string]map[string]bool) bool {
	if v.kind == "ignore" {
		return rule == v.rule
	}
	return kindRules[v.kind][rule]
}

// checkDeadValves fails for every valve that silences nothing: disabled
// alone, it lets no finding through. A finding of the valve-stripped run
// that only one valve covers shows that valve live, since the rules find
// a site the same way whatever other valves say; eval-isolation's findings
// show nothing, because a shared doc valve also cuts a function out of
// its callers' write summaries and out of the walk's reach, so its reach
// is not its own lines. Each
// valve left unshown is disabled alone in the loaded tree and the rules
// it silences are run again.
func checkDeadValves(t *testing.T, root string, vs []valve, stripped []analysis.Finding, kindRules map[string]map[string]bool) {
	t.Helper()
	shown := make([]bool, len(vs))
	for _, f := range stripped {
		if f.Rule == "eval-isolation" {
			continue
		}
		only := -1
		for i, v := range vs {
			if v.covers(f, kindRules) {
				if only >= 0 {
					only = -1
					break
				}
				only = i
			}
		}
		if only >= 0 {
			shown[only] = true
		}
	}
	var unshown []valve
	for i, v := range vs {
		if !shown[i] {
			unshown = append(unshown, v)
		}
	}
	if len(unshown) == 0 {
		return
	}
	pkgs, err := analysis.NewLoader(root).Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range unshown {
		c := findDirective(pkgs, filepath.Join(root, filepath.FromSlash(v.file)), v.line)
		if c == nil {
			t.Errorf("%s:%d: the loaded tree has no //metrovet:%s here", v.file, v.line, v.kind)
			continue
		}
		text := c.Text
		c.Text = strings.Replace(text, "//metrovet:", "//metrovet-off:", 1)
		n := len(runSilenced(pkgs, v, kindRules))
		c.Text = text
		if n == 0 {
			t.Errorf("%s:%d: //metrovet:%s silences nothing: disabled alone, no finding surfaces; delete it", v.file, v.line, v.kind)
		}
	}
}

// findDirective returns the directive comment on the given line of the
// named file.
func findDirective(pkgs []*analysis.Package, filename string, line int) *ast.Comment {
	for _, p := range pkgs {
		for _, f := range p.AllFiles() {
			if p.Fset.Position(f.Package).Filename != filename {
				continue
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if p.Fset.Position(c.Pos()).Line == line && strings.HasPrefix(c.Text, "//metrovet:") {
						return c
					}
				}
			}
		}
	}
	return nil
}

// runSilenced runs the rules v can silence over pkgs. Each Package is
// copied field by exported field first: a Package indexes its
// directives the first time a rule asks, and the copy has no index yet.
func runSilenced(pkgs []*analysis.Package, v valve, kindRules map[string]map[string]bool) []analysis.Finding {
	fresh := make([]*analysis.Package, len(pkgs))
	for i, p := range pkgs {
		fresh[i] = &analysis.Package{
			ImportPath: p.ImportPath, Dir: p.Dir, Fset: p.Fset,
			Files: p.Files, TestFiles: p.TestFiles, XTestFiles: p.XTestFiles,
			Types: p.Types, Info: p.Info, XInfo: p.XInfo, TypeErrs: p.TypeErrs,
		}
	}
	prog := analysis.NewProgram(fresh)
	var out []analysis.Finding
	for _, a := range analysis.Analyzers() {
		if v.silences(a.Name, kindRules) {
			out = append(out, a.Run(prog)...)
		}
	}
	return out
}

// ledgerRow is what the test reads from one rule's ledger row: the first
// integer of its Valves cell (-1 when the cell opens with none, as a rule
// sharing another's valves does), of its silenced cell, and the first
// "P of C" proven fraction there (-1 of -1 when it states none).
type ledgerRow struct{ valves, silenced, proven, checked int }

var (
	ruleCellRE      = regexp.MustCompile("^MV[0-9]{3} `([a-z-]+)`$")
	leadingIntRE    = regexp.MustCompile(`^[0-9]+`)
	provenRE        = regexp.MustCompile(`([0-9]+) of ([0-9]+)`)
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
		row := ledgerRow{valves: -1, proven: -1, checked: -1}
		if n := leadingIntRE.FindString(cells[4]); n != "" {
			row.valves, _ = strconv.Atoi(n)
		}
		n := leadingIntRE.FindString(cells[5])
		if n == "" {
			t.Fatalf("ledger row %s: the silenced cell %q opens with no count", m[1], cells[5])
		}
		row.silenced, _ = strconv.Atoi(n)
		if f := provenRE.FindStringSubmatch(cells[5]); f != nil {
			row.proven, _ = strconv.Atoi(f[1])
			row.checked, _ = strconv.Atoi(f[2])
		}
		rows[m[1]] = row
	}
	m := valveTotalRE.FindStringSubmatch(page)
	if len(kindRules) == 0 || len(rows) == 0 || m == nil {
		t.Fatalf("docs/ANALYZERS.md: found %d directive rows, %d ledger rows and valve total %q; the tables moved", len(kindRules), len(rows), m)
	}
	total, _ = strconv.Atoi(m[1])
	return kindRules, rows, total
}
