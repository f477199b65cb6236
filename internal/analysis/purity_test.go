package analysis

import (
	"strings"
	"testing"
)

// acceptanceFixture is the prover's acceptance case: Eval mutates
// another component's state through two levels of calls, the second of
// which is interface-dispatched, so no shape at the Eval itself shows it.
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

// TestEvalIsolationInterfaceDispatch: the mutation two frames down and
// behind an interface is caught at the dispatch site.
func TestEvalIsolationInterfaceDispatch(t *testing.T) {
	got := runRule(t, EvalIsolation(), "metro/internal/rival", map[string]string{"rival.go": acceptanceFixture})
	wantFindings(t, got, "eval-isolation", [2]any{"rival.go", 30})
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
	got := runRule(t, EvalIsolation(), "metro/internal/p", files)
	wantFindings(t, got, "eval-isolation", [2]any{"p.go", 9})
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
	got := runRule(t, EvalIsolation(), "metro/internal/p", files)
	// Two findings: the closure write (line 8) and the alias write
	// (line 11). The receiver-derived alias resolves through a call
	// result (regionUnknown) and stays silent.
	wantFindings(t, got, "eval-isolation", [2]any{"p.go", 8}, [2]any{"p.go", 11})
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
	got := runRule(t, EvalIsolation(), "metro/internal/p", files)
	wantFindings(t, got, "eval-isolation", [2]any{"p.go", 21})
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
	got := runRule(t, EvalIsolation(), "metro/internal/p", files)
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
	got := runEvalIsolation(prog)
	wantFindings(t, got, "eval-isolation", [2]any{"metro/internal/comp/c.go", 11})
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
	got := runRule(t, EvalIsolation(), "metro/internal/p", files)
	if len(got) != 0 {
		t.Fatalf("clean component flagged: %v", got)
	}
}

// TestEvalIsolationPackageLevelState: a plain, a compound and a
// multi-assignment to a package variable are shared writes, in Eval or
// in a helper it calls, and assigning one does not turn it into a local
// alias that hides a later increment. Rebinding a local stays silent,
// even one that aliases another component.
func TestEvalIsolationPackageLevelState(t *testing.T) {
	got := runRule(t, EvalIsolation(), "metro/internal/g", map[string]string{
		"g.go": `package g

var hits int

type Other struct{ n int }

func (o *Other) Eval(cycle uint64) {}

type C struct{ peer *Other }

func (c *C) Eval(cycle uint64) {
	hits = 3
	hits += 2
	c.reset()
	c.bump()
	p := c.peer
	p = nil
	_, hits = p, 1
}

func (c *C) reset() { hits = 4 }

func (c *C) bump() {
	hits = 3
	hits++
}
`,
	})
	wantFindings(t, got, "eval-isolation",
		[2]any{"g.go", 12}, // hits = 3
		[2]any{"g.go", 13}, // hits += 2
		[2]any{"g.go", 18}, // _, hits = p, 1
		[2]any{"g.go", 21}, // helper: hits = 4
		[2]any{"g.go", 24}, // hits = 3
		[2]any{"g.go", 25}, // hits++ after it
	)
}

// isoFixture has a component whose Eval (and a reachable helper) writes
// and calls into another component in the same package.
const isoFixture = `package core

type Other struct{ x int }

func (o *Other) Eval(cycle uint64)   {}
func (o *Other) Commit(cycle uint64) {}
func (o *Other) Poke()               { o.x++ }

type Comp struct {
	n     int
	other *Other
}

func (c *Comp) Eval(cycle uint64) {
	c.n++
	c.other.x = 1
	c.other.Poke()
	c.helper()
}

func (c *Comp) Commit(cycle uint64) {}

func (c *Comp) helper() {
	c.other.x = 2
}
`

// TestEvalIsolationEvalOnlyComponents: components declare Eval alone
// (only wires latch), and writing another one's field from Eval is still
// a foreign write.
func TestEvalIsolationEvalOnlyComponents(t *testing.T) {
	got := runRule(t, EvalIsolation(), "metro/internal/core", map[string]string{
		"evalonly.go": `package core

type Other struct{ x int }

func (o *Other) Eval(cycle uint64) {}

type Comp struct{ other *Other }

func (c *Comp) Eval(cycle uint64) { c.other.x = 1 }
`,
	})
	wantFindings(t, got, "eval-isolation", [2]any{"evalonly.go", 9})
}

func TestEvalIsolationLinkPackageExempt(t *testing.T) {
	// The identical shapes inside internal/link are the sanctioned
	// inter-component interface and raise nothing.
	got := runRule(t, EvalIsolation(), "metro/internal/link", map[string]string{
		"iso.go": isoFixture,
	})
	wantFindings(t, got, "eval-isolation")
}

// TestEvalIsolationLinkEndCalls: a link is clocked (it latches), but
// calling a link end a component holds is the sanctioned interface, not
// a call onto another component.
func TestEvalIsolationLinkEndCalls(t *testing.T) {
	prog := loadFixtureProgram(t,
		fixturePkg{path: "metro/internal/link", files: map[string]string{
			"l.go": `package link

type Link struct{ dead bool }

func (l *Link) Commit(cycle uint64) {}
func (l *Link) Dead() bool          { return l.dead }
func (l *Link) Kill()               { l.dead = true }
`,
		}},
		fixturePkg{path: "metro/internal/core", files: map[string]string{
			"c.go": `package core

import "metro/internal/link"

type C struct {
	in *link.Link
	n  int
}

func (c *C) Eval(cycle uint64) {
	if !c.in.Dead() {
		c.n++
	}
	c.in.Kill()
}
`,
		}},
	)
	wantFindings(t, runEvalIsolation(prog), "eval-isolation")
}

func TestEvalIsolationOutsideInternalExempt(t *testing.T) {
	got := runRule(t, EvalIsolation(), "metro/cmd/tool", map[string]string{
		"iso.go": isoFixture,
	})
	wantFindings(t, got, "eval-isolation")
}

func TestEvalIsolationBareDirectiveSuppressesNothing(t *testing.T) {
	got := runRule(t, EvalIsolation(), "metro/internal/core", map[string]string{
		"bare.go": `package core

type Other struct{ x int }

func (o *Other) Eval(cycle uint64)   {}
func (o *Other) Commit(cycle uint64) {}

type Comp struct{ other *Other }

func (c *Comp) Eval(cycle uint64) {
	//metrovet:shared
	c.other.x = 1
}

func (c *Comp) Commit(cycle uint64) {}
`,
	})
	wantFindings(t, got, "eval-isolation", [2]any{"bare.go", 12})
}

// TestEvalIsolationOwnComponentSelfCalls pins the root-type refinement:
// a sub-object helper (a NIC's sender) calling back into the component
// whose Eval roots the tree stays inside that component's own state.
func TestEvalIsolationOwnComponentSelfCalls(t *testing.T) {
	got := runRule(t, EvalIsolation(), "metro/internal/nic", map[string]string{
		"self.go": `package nic

type sub struct{ ep *Ep }

func (s *sub) fire() { s.ep.finish() }

type hook interface{ Done(int) }

type Ep struct {
	s    sub
	h    hook
	done int
}

func (e *Ep) Eval(cycle uint64) {
	e.s.fire()
	if e.h != nil {
		e.h.Done(e.done) // interface call with no implementer: no edge
	}
}

func (e *Ep) Commit(cycle uint64) {}

func (e *Ep) finish() { e.done++ }
`,
	})
	wantFindings(t, got, "eval-isolation")
}

// TestEvalIsolationStreamingSinkFlagsMutation pins the Recorder-tap
// roots: a method named Sink taking one event-batch slice and returning
// nothing runs on the engine's flushing goroutine, so its call tree is
// held to the observe-only contract — tallying into its own fields is
// fine, mutating a component is flagged. Lookalikes (extra params,
// results) root nothing.
func TestEvalIsolationStreamingSinkFlagsMutation(t *testing.T) {
	got := runRule(t, EvalIsolation(), "metro/internal/netsim", map[string]string{
		"tap.go": `package netsim

type Event struct{ Kind int }

type Comp struct{ n int }

func (c *Comp) Eval(cycle uint64)   {}
func (c *Comp) Commit(cycle uint64) {}

type bridge struct {
	seen   int
	victim *Comp
}

func (b *bridge) Sink(events []Event) {
	b.seen += len(events) // own tally: fine
	b.victim.n++          // mutates a component: flagged
}

type cleanBridge struct{ seen int }

func (b *cleanBridge) Sink(events []Event) { b.seen += len(events) }

// Lookalikes: wrong shapes, not rooted.
type notTap struct{ victim *Comp }

func (n *notTap) Sink(events []Event, limit int) { n.victim.n++ }

type alsoNotTap struct{ victim *Comp }

func (n *alsoNotTap) Sink(events []Event) int { n.victim.n++; return 0 }
`,
	})
	wantFindings(t, got, "eval-isolation", [2]any{"tap.go", 17})
	if !strings.Contains(got[0].Msg, "(netsim.bridge).Sink") || !strings.Contains(got[0].Msg, "a telemetry sink observes the simulation") {
		t.Errorf("finding should name the Sink root and the sink contract: %s", got[0].Msg)
	}
}
