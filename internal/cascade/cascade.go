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
	"math/bits"
	"strconv"

	"metro/internal/core"
	"metro/internal/prng"
)

// Eval steps one router column: it evaluates the lanes in order and, when
// there are several, applies the wired-AND IN-USE consistency check,
// killing every connection the lanes disagree about on every lane. It
// returns the number of connections it killed. The lanes draw from one
// shared random stream and the check reads every lane within the cycle,
// so a column is always evaluated whole — one kernel unit
// (kernel.Builder.AddColumn) or one Group — and never split across
// workers.
//
//metrovet:shared the lanes are one column: one kernel unit (or one Group), so one goroutine evaluates and checks all of them
func Eval(lanes []*core.Router, cycle uint64) int {
	for _, r := range lanes {
		r.Eval(cycle)
	}
	if len(lanes) < 2 {
		return 0
	}
	base := lanes[0].BackwardInUse()
	for _, r := range lanes[1:] {
		if r.BackwardInUse() != base {
			return kill(lanes, cycle)
		}
	}
	return 0
}

// kill finds the offending forward ports (owners of any backward port
// whose state differs across the lanes), shuts them down on every lane
// and returns how many there were. The wired-AND check reads every lane
// within the cycle; that is why a column is one unit and never split
// across workers.
func kill(lanes []*core.Router, cycle uint64) int {
	// victims has bit fp set for every forward port to kill: a router has
	// at most core.MaxPorts = 64 inputs.
	var victims uint64
	for bp := 0; bp < lanes[0].Config().Outputs; bp++ {
		firstOwner := -1
		anyOwned, anyFree, mixed := false, false, false
		for _, r := range lanes {
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
			for _, r := range lanes {
				if fp := r.OwnerOf(bp); fp >= 0 {
					victims |= 1 << (fp & (core.MaxPorts - 1))
				}
			}
		}
	}
	// Kill in ascending forward-port order: KillConnection emits telemetry
	// events, and the hardware's wired-AND check resolves all ports in one
	// combinational pass, so the model must not leak iteration order into
	// the trace stream.
	kills := 0
	for ; victims != 0; victims &= victims - 1 {
		fp := bits.TrailingZeros64(victims)
		for _, r := range lanes {
			r.KillConnection(cycle, fp)
		}
		kills++
	}
	return kills
}

// Group is a hand-wired width-cascaded logical router: c member routers
// evaluated in lockstep as one clock.Component, with the consistency
// check run after each evaluation (Eval). A built network's router
// columns are the same lanes driven by the kernel instead; a Group's
// members must never be registered individually.
type Group struct {
	members []*core.Router
	kills   int
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
	return &Group{members: members}
}

// Width returns the cascade width c.
func (g *Group) Width() int { return len(g.members) }

// Member returns the k-th member router.
func (g *Group) Member(k int) *core.Router { return g.members[k] }

// Kills returns how many connections the consistency check has shut down.
func (g *Group) Kills() int { return g.kills }

// Eval implements clock.Component: it steps the members as one column.
func (g *Group) Eval(cycle uint64) { g.kills += Eval(g.members, cycle) }
