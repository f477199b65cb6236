package netsim

import (
	"metro/internal/cascade"
	"metro/internal/clock"
	"metro/internal/core"
	"metro/internal/link"
)

// Reference is the per-component reference stepper: a clock.Kernel over an
// already-built Network that evaluates each unit through the virtual
// clock.Component interface and clears each link's read registers through its
// own Link.Clear, sharing no dispatch or partitioned clear with
// kernel.Compiled, so the tests and
// metrofuzz's "kernel" oracle can compare the two. Serial only; nothing selects
// it but n.Engine.SetKernel(netsim.NewReference(n)) after a Workers = 1 Build.
type Reference struct {
	units []clock.Component
	links []link.Link
}

// NewReference orders units as the compiled plan does: columns, then endpoints.
func NewReference(n *Network) *Reference {
	r := &Reference{}
	for s := range n.Routers {
		for _, lanes := range n.Routers[s] {
			r.units = append(r.units, column(lanes))
		}
	}
	for _, ep := range n.Endpoints {
		r.units = append(r.units, ep)
	}
	n.EachLink(func(l link.Link) { r.links = append(r.links, l) })
	return r
}

// column is a router column as a clock.Component.
type column []*core.Router

func (c column) Eval(cycle uint64) { cascade.Eval(c, cycle) }

// Units, EvalUnits, CommitUnits and CommitBatch implement clock.Kernel.
// CommitUnits is empty: units keep no clock-edge state. CommitBatch, which
// the engine calls as (0, 1) on the stepping goroutine, clears every link
// one by one; the arenas' latches, which Build registered, then advance
// their rings as they do under the compiled plan.
func (r *Reference) Units() int { return len(r.units) }

func (r *Reference) EvalUnits(lo, hi int, cycle uint64) {
	for _, u := range r.units[lo:hi] {
		u.Eval(cycle)
	}
}

func (r *Reference) CommitUnits(lo, hi int, cycle uint64) {}

func (r *Reference) CommitBatch(part, parts int, cycle uint64) {
	for _, l := range r.links {
		l.Clear()
	}
}
