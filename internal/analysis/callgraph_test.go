package analysis

import (
	"testing"
)

// callGraphFixture is a two-package program exercising every edge kind:
// a static cross-package call, a CHA-resolved interface dispatch, and a
// method-value reference.
func callGraphFixture(t *testing.T) *Program {
	t.Helper()
	return loadFixtureProgram(t,
		fixturePkg{path: "metro/internal/sink", files: map[string]string{
			"sink.go": `package sink

// Poker is dispatched through by the router package.
type Poker interface{ Poke(uint64) }

// Counter implements Poker.
type Counter struct{ n uint64 }

func (c *Counter) Poke(cycle uint64) { c.n++ }

// Helper is called statically across packages.
func Helper(x int) int { return x + 1 }
`,
		}},
		fixturePkg{path: "metro/internal/rtr", files: map[string]string{
			"rtr.go": `package rtr

import "metro/internal/sink"

type Router struct {
	p sink.Poker
	v int
}

func (r *Router) Eval(cycle uint64) {
	r.v = sink.Helper(r.v) // static cross-package edge
	r.p.Poke(cycle)        // interface edge, CHA -> (*sink.Counter).Poke
	f := r.helper          // method-value reference edge
	f()
}

func (r *Router) Commit(cycle uint64) {}

func (r *Router) helper() {}
`,
		}},
	)
}

func TestCallGraphEdges(t *testing.T) {
	prog := callGraphFixture(t)
	cg := BuildCallGraph(prog)

	eval := prog.funcs["metro/internal/rtr.Router.Eval"]
	if eval == nil {
		t.Fatal("Eval not indexed")
	}
	want := map[string]EdgeKind{
		"metro/internal/sink.Helper":       EdgeStatic,
		"metro/internal/sink.Counter.Poke": EdgeIface,
		"metro/internal/rtr.Router.helper": EdgeRef,
	}
	got := map[string]EdgeKind{}
	for _, e := range cg.Edges[eval] {
		got[e.Callee.Key] = e.Kind
		if e.Kind == EdgeIface {
			if e.IfaceRecv == nil || e.IfaceRecv.Obj().Name() != "Counter" {
				t.Errorf("iface edge recv = %v, want Counter", e.IfaceRecv)
			}
			if e.IfaceName != "sink.Poker" {
				t.Errorf("iface edge name = %q, want sink.Poker", e.IfaceName)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
	for key, kind := range want {
		if got[key] != kind {
			t.Errorf("edge to %s = %v, want %v", key, got[key], kind)
		}
	}
}

func TestCallGraphReachable(t *testing.T) {
	prog := callGraphFixture(t)
	cg := BuildCallGraph(prog)
	eval := prog.funcs["metro/internal/rtr.Router.Eval"]
	reached := cg.Reachable([]RootedNode{{Node: eval, Root: "(*Router).Eval"}}, nil)

	poke := prog.funcs["metro/internal/sink.Counter.Poke"]
	ri, ok := reached[poke]
	if !ok {
		t.Fatal("interface-dispatched Poke not reached from Eval")
	}
	if ri.Root != "(*Router).Eval" || ri.Via != "sink.Poker" {
		t.Errorf("RootInfo = %+v, want root (*Router).Eval via sink.Poker", ri)
	}
	if _, ok := reached[prog.funcs["metro/internal/rtr.Router.helper"]]; !ok {
		t.Error("method-value helper not reached")
	}
	if _, ok := reached[prog.funcs["metro/internal/rtr.Router.Commit"]]; ok {
		t.Error("Commit reached without an edge")
	}
}

// TestTransitiveAnalyzers proves hot-path-alloc and eval-isolation
// follow the call graph across packages: a helper two packages away from
// Eval is on the hook.
func TestTransitiveAnalyzers(t *testing.T) {
	prog := loadFixtureProgram(t,
		fixturePkg{path: "metro/internal/util", files: map[string]string{
			"u.go": `package util

var registry = map[string]int{}

// Scratch allocates on every call.
func Scratch(n int) []int { return make([]int, n) }

// Register writes package-level state.
func Register(name string) { registry[name] = 1 }
`,
		}},
		fixturePkg{path: "metro/internal/comp2", files: map[string]string{
			"c.go": `package comp2

import "metro/internal/util"

type C struct{ buf []int }

func (c *C) Eval(cycle uint64) {
	c.buf = util.Scratch(4)
	util.Register("c")
}

func (c *C) Commit(cycle uint64) {}
`,
		}},
	)
	alloc := runHotPathAlloc(prog)
	found := false
	for _, f := range alloc {
		if f.Pos.Filename == "metro/internal/util/u.go" && f.Pos.Line == 6 {
			found = true
		}
	}
	if !found {
		t.Errorf("hot-path-alloc missed the cross-package make: %v", alloc)
	}

	iso := runEvalIsolation(prog)
	found = false
	for _, f := range iso {
		if f.Pos.Filename == "metro/internal/util/u.go" && f.Pos.Line == 9 {
			found = true
		}
	}
	if !found {
		t.Errorf("eval-isolation missed the cross-package global write: %v", iso)
	}
}
