// Package cascade implements METRO's router width cascading (paper,
// Section 5.1): building a logical router with a wide datapath from
// several narrow routing components operating in parallel.
//
// Two hooks make the members behave identically: *shared randomness* (all
// members draw their random input bits from the same off-chip stream, so
// identical connection requests produce identical stochastic allocations)
// and a *wired-AND IN-USE consistency check* (each backward port's in-use
// state is compared across members every cycle; any disagreement is
// necessarily an error — a corrupted header reached some member — and the
// connection is immediately shut down on all members, containing the
// fault). End-to-end checksums still back-stop the rare cases the wired
// AND cannot see.
//
// A logical word on a c-cascade of width-w routers is w*c bits: control
// words (ROUTE, TURN, DROP, DATA-IDLE) are replicated to every member so
// their connection state machines stay in lockstep, while DATA and
// CHECKSUM payloads are bit-sliced across the members (word.MemberWord
// splits a logical word, word.MergeWords joins one; an endpoint's lanes
// run both).
package cascade

import (
	"strconv"

	"metro/internal/core"
	"metro/internal/prng"
)

// Group is a width-cascaded logical router: c member routers evaluated in
// lockstep as one clocked element, with the consistency check run
// combinationally after each evaluation. The members draw from one
// shared LFSR stream and the wired-AND IN-USE check reads every member
// within a cycle, so a Group is always driven whole — one kernel unit
// (kernel.Builder.AddCascade) or one clock.Component — and its members
// must never be registered individually.
type Group struct {
	name    string
	members []*core.Router
	kills   int
	victims []bool // per forward port; scratch reused by check each cycle
}

// NewGroup builds a cascade of c members of shape sh, each drawing random
// bits from a fork of the same shared stream. The members read the shape
// in place, as the routers of a stage do (core.Shape).
func NewGroup(name string, sh *core.Shape, c int, shared *prng.Shared) *Group {
	if c < 1 {
		panic("cascade: need at least one member")
	}
	members := make([]*core.Router, c)
	for k := range members {
		members[k] = sh.NewRouter(name+".m"+strconv.Itoa(k), shared.Fork())
	}
	return &Group{name: name, members: members, victims: make([]bool, members[0].Config().Inputs)}
}

// Width returns the cascade width c.
func (g *Group) Width() int { return len(g.members) }

// Member returns the k-th member router.
func (g *Group) Member(k int) *core.Router { return g.members[k] }

// Kills returns how many connections the consistency check has shut down.
func (g *Group) Kills() int { return g.kills }

// Eval evaluates every member and then applies the wired-AND IN-USE
// consistency check.
//
//metrovet:shared members are the group's own state: the Group is a single kernel unit (or a single component), so one goroutine evaluates all of them
func (g *Group) Eval(cycle uint64) {
	for _, r := range g.members {
		r.Eval(cycle)
	}
	g.check(cycle)
}

// Commit implements clock.Component.
func (g *Group) Commit(cycle uint64) {
	for _, r := range g.members {
		r.Commit(cycle)
	}
}

// check compares the members' backward-port allocation masks and kills any
// connection the members disagree about, on every member.
//
//metrovet:shared the wired-AND check reads every member within the cycle; that is why a Group is one unit and never split across workers
func (g *Group) check(cycle uint64) {
	base := g.members[0].BackwardInUse()
	agree := true
	for _, r := range g.members[1:] {
		if r.BackwardInUse() != base {
			agree = false
			break
		}
	}
	if agree {
		return
	}
	// Disagreement: find the offending forward ports (owners of any port
	// whose state differs across members) and shut them down everywhere.
	// The per-port victim flags live on the Group so the per-cycle check
	// stays allocation-free.
	outputs := g.members[0].Config().Outputs
	for fp := range g.victims {
		g.victims[fp] = false
	}
	for bp := 0; bp < outputs; bp++ {
		firstOwner := -1
		anyOwned, anyFree, mixed := false, false, false
		for _, r := range g.members {
			fp := r.OwnerOf(bp)
			if fp < 0 {
				anyFree = true
				continue
			}
			if anyOwned && fp != firstOwner {
				mixed = true
			}
			anyOwned = true
			firstOwner = fp
		}
		if (anyOwned && anyFree) || mixed {
			for _, r := range g.members {
				if fp := r.OwnerOf(bp); fp >= 0 && fp < len(g.victims) {
					g.victims[fp] = true
				}
			}
		}
	}
	// Kill in ascending forward-port order: KillConnection emits tracer
	// events, and the hardware's wired-AND check resolves all ports in one
	// combinational pass, so the model must not leak iteration order into
	// the trace stream.
	for fp := 0; fp < g.members[0].Config().Inputs; fp++ {
		if !g.victims[fp] {
			continue
		}
		for _, r := range g.members {
			r.KillConnection(cycle, fp)
		}
		g.kills++
	}
}
