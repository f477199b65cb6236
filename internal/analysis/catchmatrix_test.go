package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// readFixture is a component that only *looks* at its neighbour, by a
// read-only method. Nothing is written; eval-isolation flags the touch
// itself.
const readFixture = `package core

type Other struct{ x int }

func (o *Other) Eval(cycle uint64)   {}
func (o *Other) Commit(cycle uint64) {}
func (o *Other) Peek() int           { return o.x }

type Comp struct {
	n     int
	other *Other
}

func (c *Comp) Eval(cycle uint64) {
	c.n = c.other.Peek()
}

func (c *Comp) Commit(cycle uint64) {}
`

// pokeFixture is an exported mutator off its own type's cycle path. The
// seed appends the code that decides whether that is a defect.
const pokeFixture = `package core

type Other struct{ x int }

func (o *Other) Eval(cycle uint64) {}

// Poke writes Other's state; Other's own Eval never calls it.
func (o *Other) Poke() { o.x++ }
`

// catchRow is one seeded violation: a small fixture package, the ledger
// gate it seeds, and every rule that fires on it.
type catchRow struct {
	gate, name string
	pkg, file  string
	src        string
	want       []string         // rule IDs that fire, sorted
	lines      map[string][]int // lines a rule flags, where a row pins them
}

// catchRows is docs/ANALYZERS.md's ledger as seeds: one row per seeded
// violation of every live rule, plus the rows that retired MV004 and
// MV009.
var catchRows = []catchRow{
	{gate: "MV001", name: "time.Now in an Eval", pkg: "metro/internal/core", file: "wall.go", src: `package core

import "time"

type C struct{ t int64 }

func (c *C) Eval(cycle uint64) { c.t = time.Now().UnixNano() }
`, want: []string{"MV001"}},
	{gate: "MV002", name: "global rand in an Eval", pkg: "metro/internal/core", file: "rand.go", src: `package core

import "math/rand"

type C struct{ n int }

func (c *C) Eval(cycle uint64) { c.n = rand.Intn(4) }
`, want: []string{"MV002"}},
	{gate: "MV003", name: "map range in an Eval", pkg: "metro/internal/core", file: "maprange.go", src: `package core

type C struct {
	m map[int]int
	n int
}

func (c *C) Eval(cycle uint64) {
	for k := range c.m {
		c.n += k
	}
}
`, want: []string{"MV003"}},
	{gate: "MV004", name: "exported mutator another component's Eval calls", pkg: "metro/internal/core", file: "poke.go", src: pokeFixture + `
type Comp struct{ other *Other }

func (c *Comp) Eval(cycle uint64) { c.other.Poke() }
`, want: []string{"MV008"}, lines: map[string][]int{"MV008": {12}}},
	{gate: "MV004", name: "exported mutator no Eval calls", pkg: "metro/internal/core", file: "poke.go", src: pokeFixture},
	{gate: "MV005", name: "auditor no test calls", pkg: "metro/internal/core", file: "inv.go", src: `package core

type C struct{ n int }

// CheckInvariants audits c.
func CheckInvariants(c *C) error { return nil }
`, want: []string{"MV005"}},
	{gate: "MV006", name: "enum switch with a silent default", pkg: "metro/internal/core", file: "enum.go", src: `package core

type kind uint8

const (
	kindA kind = iota
	kindB
	kindC
)

type C struct {
	k kind
	n int
}

func (c *C) Eval(cycle uint64) {
	switch c.k {
	case kindA:
		c.n = 1
	default:
	}
}
`, want: []string{"MV006"}},
	{gate: "MV007", name: "make in an Eval", pkg: "metro/internal/core", file: "alloc.go", src: `package core

type C struct{ buf []int }

func (c *C) Eval(cycle uint64) { c.buf = make([]int, 4) }
`, want: []string{"MV007"}},
	{gate: "MV008", name: "read-only call on a foreign component", pkg: "metro/internal/core", file: "read.go", src: readFixture,
		want: []string{"MV008"}, lines: map[string][]int{"MV008": {15}}},
	{gate: "MV008", name: "a Sink tap mutating the model", pkg: "metro/internal/netsim", file: "tap.go", src: `package netsim

type Event struct{ Kind int }

type Comp struct{ n int }

func (c *Comp) Eval(cycle uint64) {}

type bridge struct{ victim *Comp }

func (b *bridge) Sink(events []Event) { b.victim.n++ }
`, want: []string{"MV008"}},
	{gate: "MV008", name: "compound assignment to a package variable in an Eval", pkg: "metro/internal/core", file: "global.go", src: `package core

var hits int

type C struct{}

func (c *C) Eval(cycle uint64) { hits += 2 }
`, want: []string{"MV008"}, lines: map[string][]int{"MV008": {7}}},
	{gate: "MV009", name: "mutation two frames down behind an interface", pkg: "metro/internal/rival", file: "rival.go", src: acceptanceFixture,
		want: []string{"MV008"}, lines: map[string][]int{"MV008": {30}}},
	{gate: "MV009", name: "direct foreign write, mutating call, write in a helper", pkg: "metro/internal/core", file: "iso.go", src: isoFixture,
		want: []string{"MV008"}, lines: map[string][]int{"MV008": {16, 17, 24}}},
	{gate: "MV010", name: "narrowing the cycle count", pkg: "metro/internal/core", file: "trunc.go", src: `package core

type C struct{ tag uint8 }

func (c *C) Eval(cycle uint64) { c.tag = uint8(cycle) }
`, want: []string{"MV010"}},
	{gate: "MV012", name: "shift by an unvalidated width", pkg: "metro/internal/core", file: "shift.go", src: `package core

type C struct {
	acc uint32
	w   int
}

func (c *C) Eval(cycle uint64) { c.acc <<= uint(c.w) }
`, want: []string{"MV010", "MV012"}},
}

// TestCatchMatrix runs every analyzer on every seeded violation and pins
// the exact set of rules that fire, then holds the ledger's "Caught by"
// column in docs/ANALYZERS.md to it. A rule whose every seed another
// rule also catches is a deletion candidate; the MV004 and MV009 rows
// record the runs that retired clocked-mutation and shard-purity. An
// exported mutator that another component's Eval calls is caught by
// eval-isolation at the call, and one nobody's Eval calls runs only
// between steps, where the schedule allows it, so no live rule fires.
func TestCatchMatrix(t *testing.T) {
	live := map[string]bool{}
	for _, a := range Analyzers() {
		live[RuleID(a.Name)] = true
	}
	fired := map[string]map[string]bool{} // by gate
	for _, row := range catchRows {
		findings := runRules(Analyzers(), loadFixtureProgram(t, fixturePkg{path: row.pkg, files: map[string]string{row.file: row.src}}))
		got := map[string][]int{}
		for _, f := range findings {
			got[RuleID(f.Rule)] = append(got[RuleID(f.Rule)], f.Pos.Line)
		}
		ids := make([]string, 0, len(got))
		for id := range got {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		if !slices.Equal(ids, row.want) {
			t.Errorf("%s, %s: rules %v fire, want %v: %v", row.gate, row.name, ids, row.want, findings)
		}
		for id, want := range row.lines {
			slices.Sort(got[id])
			if !slices.Equal(got[id], want) {
				t.Errorf("%s, %s: %s flags lines %v, want %v", row.gate, row.name, id, got[id], want)
			}
		}
		if fired[row.gate] == nil {
			fired[row.gate] = map[string]bool{}
		}
		for _, id := range ids {
			fired[row.gate][id] = true
		}
	}
	for id := range live {
		if fired[id] == nil {
			t.Errorf("%s has no seeded violation in the matrix", id)
		}
	}

	page, err := os.ReadFile(filepath.Join("..", "..", "docs", "ANALYZERS.md"))
	if err != nil {
		t.Fatal(err)
	}
	cells := ledgerCaughtBy(string(page), live)
	for gate, ids := range fired {
		cell, ok := cells[gate]
		if !ok {
			t.Errorf("%s has matrix rows but no ledger row", gate)
			continue
		}
		for id := range ids {
			if !cell[id] {
				t.Errorf("%s: the ledger's Caught-by cell does not name %s, which fires on a seed", gate, id)
			}
		}
		for id := range cell {
			if !ids[id] {
				t.Errorf("%s: the ledger's Caught-by cell names %s, which fires on no seed", gate, id)
			}
		}
	}
}

var (
	ledgerGateRE = regexp.MustCompile(`^(?:~~)?(MV[0-9]{3})`)
	ruleIDRE     = regexp.MustCompile(`MV[0-9]{3}`)
)

// ledgerCaughtBy reads the ledger's rows, struck-through retirements
// included, and returns the live rule IDs each row's "Caught by" cell
// names, keyed by the row's own ID.
func ledgerCaughtBy(page string, live map[string]bool) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, line := range strings.Split(page, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 7 {
			continue
		}
		m := ledgerGateRE.FindStringSubmatch(strings.TrimSpace(cells[1]))
		if m == nil {
			continue
		}
		out[m[1]] = map[string]bool{}
		for _, id := range ruleIDRE.FindAllString(cells[3], -1) {
			if live[id] {
				out[m[1]][id] = true
			}
		}
	}
	return out
}
