package analysis

import "testing"

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

func TestEvalIsolationFlagsForeignComponentState(t *testing.T) {
	got := runRule(t, EvalIsolation(), "metro/internal/core", map[string]string{
		"iso.go": isoFixture,
	})
	wantFindings(t, got, "eval-isolation",
		[2]any{"iso.go", 16}, // c.other.x = 1
		[2]any{"iso.go", 17}, // c.other.Poke()
		[2]any{"iso.go", 24}, // helper: c.other.x = 2
	)
}

func TestEvalIsolationLinkPackageExempt(t *testing.T) {
	// The identical shapes inside internal/link are the sanctioned
	// inter-component interface and raise nothing.
	got := runRule(t, EvalIsolation(), "metro/internal/link", map[string]string{
		"iso.go": isoFixture,
	})
	wantFindings(t, got, "eval-isolation")
}

func TestEvalIsolationOutsideInternalExempt(t *testing.T) {
	got := runRule(t, EvalIsolation(), "metro/cmd/tool", map[string]string{
		"iso.go": isoFixture,
	})
	wantFindings(t, got, "eval-isolation")
}

func TestEvalIsolationSharedDirectives(t *testing.T) {
	got := runRule(t, EvalIsolation(), "metro/internal/core", map[string]string{
		"ok.go": `package core

type Other struct{ x int }

func (o *Other) Eval(cycle uint64)   {}
func (o *Other) Commit(cycle uint64) {}

type Comp struct{ other *Other }

func (c *Comp) Eval(cycle uint64) {
	//metrovet:shared co-located with its partner by construction
	c.other.x = 1
	c.helper()
}

func (c *Comp) Commit(cycle uint64) {}

// helper pokes the partner every cycle.
//
//metrovet:shared this component runs in the serialized epilogue
func (c *Comp) helper() {
	c.other.x = 2
}
`,
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
		e.h.Done(e.done) // interface call: not traceable, not flagged
	}
}

func (e *Ep) Commit(cycle uint64) {}

func (e *Ep) finish() { e.done++ }
`,
	})
	wantFindings(t, got, "eval-isolation")
}

func TestEvalIsolationPackageLevelState(t *testing.T) {
	got := runRule(t, EvalIsolation(), "metro/internal/core", map[string]string{
		"global.go": `package core

var tally int

type Comp struct{}

func (c *Comp) Eval(cycle uint64)   { tally++ }
func (c *Comp) Commit(cycle uint64) {}
`,
	})
	wantFindings(t, got, "eval-isolation", [2]any{"global.go", 7})
}

// TestEvalIsolationStreamingSinkFlagsMutation pins the Recorder-tap
// extension: a method named Sink taking one event-batch slice and
// returning nothing runs on the engine's flushing goroutine, so its
// call tree is held to the observe-only contract — tallying into its
// own fields is fine, mutating a component or package-level state is
// flagged. Lookalikes (extra params, results) root nothing.
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
	wantFindings(t, got, "eval-isolation",
		[2]any{"tap.go", 17}, // b.victim.n++
	)
}
