package analysis

import (
	"strings"
	"testing"
)

// acceptanceFixture is the ISSUE 6 acceptance case: Eval mutates shared
// state through two levels of calls, the second of which is
// interface-dispatched — invisible to the syntactic eval-isolation
// rule, proven by the interprocedural shard-purity rule.
const acceptanceFixture = `package rival

// Bumper is the interface the mutation hides behind.
type Bumper interface{ Bump(cycle uint64) }

// Telemeter is another component registered on its own shard.
type Telemeter struct{ hits uint64 }

func (t *Telemeter) Eval(cycle uint64)   {}
func (t *Telemeter) Commit(cycle uint64) {}

// Bump mutates the telemeter — fine when called on your own state,
// a cross-shard write when dispatched from another component's Eval.
func (t *Telemeter) Bump(cycle uint64) { t.hits++ }

// Router holds an interface value that, at runtime, is the telemeter.
type Router struct {
	sink Bumper
	v    int
}

func (r *Router) Eval(cycle uint64) {
	r.v++
	r.helper(cycle) // level 1: plain call
}

func (r *Router) Commit(cycle uint64) {}

func (r *Router) helper(cycle uint64) {
	r.sink.Bump(cycle) // level 2: interface dispatch -> (*Telemeter).Bump
}
`

func TestShardPurityCatchesWhatEvalIsolationMisses(t *testing.T) {
	files := map[string]string{"rival.go": acceptanceFixture}

	// The old syntactic rule provably passes: the mutation is two
	// frames down and interface-dispatched.
	old := runRule(t, EvalIsolation(), "metro/internal/rival", files)
	if len(old) != 0 {
		t.Fatalf("eval-isolation unexpectedly caught the fixture: %v", old)
	}

	// The interprocedural rule catches it at the dispatch site.
	got := runRule(t, ShardPurity(), "metro/internal/rival", files)
	wantFindings(t, got, "shard-purity", [2]any{"rival.go", 30})
	if !strings.Contains(got[0].Msg, "rival.Bumper") || !strings.Contains(got[0].Msg, "(Telemeter).Bump") {
		t.Errorf("finding message should name the interface and target: %s", got[0].Msg)
	}
	if !strings.Contains(got[0].Msg, "(rival.Router).Eval") {
		t.Errorf("finding message should name the Eval root: %s", got[0].Msg)
	}
}

func TestShardPurityPointerParamWrite(t *testing.T) {
	files := map[string]string{"p.go": `package p

var shared int

type C struct{ n int }

func (c *C) Eval(cycle uint64) {
	bump(&c.n)    // own state through a pointer: fine
	bump(&shared) // package-level state through a pointer: finding
}

func (c *C) Commit(cycle uint64) {}

func bump(p *int) { *p++ }
`}
	got := runRule(t, ShardPurity(), "metro/internal/p", files)
	wantFindings(t, got, "shard-purity", [2]any{"p.go", 9})
	if !strings.Contains(got[0].Msg, "shared") || !strings.Contains(got[0].Msg, "writes through it") {
		t.Errorf("unexpected message: %s", got[0].Msg)
	}
}

func TestShardPurityClosureAndAlias(t *testing.T) {
	files := map[string]string{"p.go": `package p

var table = make([]int, 8)

type C struct{ n int }

func (c *C) Eval(cycle uint64) {
	f := func() { table[0] = 1 } // closure writing package state
	f()
	alias := table // alias of package state
	alias[1] = 2
	own := c.buf() // receiver-derived alias
	own[0] = 3
}

func (c *C) Commit(cycle uint64) {}

func (c *C) buf() []int { return nil }
`}
	got := runRule(t, ShardPurity(), "metro/internal/p", files)
	// Two findings: the closure write (line 8) and the alias write
	// (line 11). The receiver-derived alias resolves through a call
	// result (regionUnknown) and stays silent.
	wantFindings(t, got, "shard-purity", [2]any{"p.go", 8}, [2]any{"p.go", 11})
}

func TestShardPurityForeignComponentWrite(t *testing.T) {
	files := map[string]string{"p.go": `package p

type Other struct{ n int }

func (o *Other) Eval(cycle uint64)   {}
func (o *Other) Commit(cycle uint64) {}

type C struct {
	peer *Other
	n    int
}

func (c *C) Eval(cycle uint64) {
	c.n++
	c.poke()
}

func (c *C) Commit(cycle uint64) {}

func (c *C) poke() {
	c.peer.n = 7 // two frames down: write through another component
}
`}
	got := runRule(t, ShardPurity(), "metro/internal/p", files)
	wantFindings(t, got, "shard-purity", [2]any{"p.go", 21})
	if !strings.Contains(got[0].Msg, "component type Other") {
		t.Errorf("unexpected message: %s", got[0].Msg)
	}
}

func TestShardPuritySharedDirective(t *testing.T) {
	files := map[string]string{"p.go": `package p

var shared int

type C struct{ n int }

func (c *C) Eval(cycle uint64) {
	//metrovet:shared serialized epilogue driver, audited here
	shared = 1
	c.audited()
}

func (c *C) Commit(cycle uint64) {}

//metrovet:shared whole helper audited: runs only in the epilogue
func (c *C) audited() { shared = 2 }
`}
	got := runRule(t, ShardPurity(), "metro/internal/p", files)
	if len(got) != 0 {
		t.Fatalf("annotated fixture should be clean, got %v", got)
	}
}

func TestShardPurityCrossPackageTransitive(t *testing.T) {
	prog := loadFixtureProgram(t,
		fixturePkg{path: "metro/internal/helperpkg", files: map[string]string{
			"h.go": `package helperpkg

// Tally accumulates into the slot its caller hands it.
func Tally(slot *uint64, v uint64) { *slot += v }
`,
		}},
		fixturePkg{path: "metro/internal/comp", files: map[string]string{
			"c.go": `package comp

import "metro/internal/helperpkg"

var grand uint64

type C struct{ local uint64 }

func (c *C) Eval(cycle uint64) {
	helperpkg.Tally(&c.local, 1) // shard-local: fine
	helperpkg.Tally(&grand, 1)   // package state through two packages
}

func (c *C) Commit(cycle uint64) {}
`,
		}},
	)
	got := runShardPurity(prog)
	wantFindings(t, got, "shard-purity", [2]any{"metro/internal/comp/c.go", 11})
	if !strings.Contains(got[0].Msg, "grand") || !strings.Contains(got[0].Msg, "helperpkg.Tally") {
		t.Errorf("unexpected message: %s", got[0].Msg)
	}
}

func TestShardPurityCleanComponent(t *testing.T) {
	files := map[string]string{"p.go": `package p

type C struct {
	n    int
	buf  []int
	subs sub
}

type sub struct{ k int }

func (c *C) Eval(cycle uint64) {
	c.n++
	c.buf[0] = c.n
	c.subs.k = 2
	c.grow()
	local := make([]int, 4)
	local[1] = 9
}

func (c *C) Commit(cycle uint64) {}

func (c *C) grow() { c.buf = append(c.buf, 1) }
`}
	got := runRule(t, ShardPurity(), "metro/internal/p", files)
	if len(got) != 0 {
		t.Fatalf("clean component flagged: %v", got)
	}
}
