// Package kernel compiles an assembled METRO network into a flattened
// struct-of-arrays execution plan — the clock engine's one cycle path.
//
// Driving each component through a virtual Eval and latching each link
// through its own Commit, with link pipelines scattered across hundreds
// of small allocations, pays a pointer-chasing tax on every cycle. A
// compiled kernel removes it. Components keep no clock-edge state (only
// the wires latch), so the plan's CommitUnits and CommitBatch are empty,
// and its link pipeline registers live in per-delay-class arenas
// (link.Arena), one register per link direction in a ring of delay+1
// parallel planes, placed reader-major: every unit's inputs are one
// contiguous run of registers, in unit order, so a unit's per-cycle reads
// are adjacent cache lines, and a range of units has read everything it
// will read this cycle once it has evaluated. EvalUnits then clears that
// range's runs of the plane just read, on the lane that read them, and the
// only commit work left for the interconnect is each arena's head advancing
// one plane (its latch). Evaluation units are one array of router-column
// lanes and one of endpoints, columns numbered first, walked by plain loops
// with direct, devirtualized calls per concrete type. Which link ends a unit
// reads is known to the unit itself: Compile asks each router and endpoint
// for the ends it holds and audits the register placement against them
// once. The plan keeps no copy of the wiring, since no cycle reads one.
//
// The component structs are not replaced: a core.Router or nic.Endpoint
// referenced by a unit is the same object tests, telemetry, and scan
// already observe, and a link.Link placed in an arena is a value naming
// arena memory. That is the view-struct contract documented in
// docs/KERNEL.md — the kernel changes where state lives and how it is
// driven, never what it is.
//
// Unit order is part of the determinism contract: the builder is fed
// router columns stage-major and endpoints after, a pure function of the
// topology, so every worker partition of the index space is too. A
// router column is a single unit because the wired-AND IN-USE check reads
// every cascade lane within a cycle. netsim.Reference steps the same
// units in the same order through the virtual interface; the
// differential tests hold the two bit-identical.
package kernel

import (
	"fmt"
	"math"

	"metro/internal/cascade"
	"metro/internal/core"
	"metro/internal/link"
	"metro/internal/nic"
)

// Builder accumulates the flattened layout while netsim elaborates a
// network. Feed it arenas, placements and units, then Compile.
type Builder struct {
	c Compiled
	// placed holds each arena of the plan, in plan order, with its links
	// in placement order: what Compile audits the held ends against. The
	// arenas keep no record of their links, and neither does the plan, so
	// the placements die with the builder.
	placed []placed
}

// placed is one arena's links as the builder placed them, and, once
// Compile has begun its audit, the reader of each of its registers.
type placed struct {
	a     *link.Arena
	links []link.Link
	// reader[r] is the unit reading register r once a held end claims it.
	// Until then it is ^li while the direction of links[li] claims it
	// (negative, so "unread"), and noReader while none does.
	reader []int32
}

// noReader marks a register no placed link claims. NewArena bounds an
// arena's links to MaxInt32/2, so no ^li reaches it.
const noReader = math.MinInt32

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Arena creates a link arena for one delay class and registers it with the
// plan. Capacity must be exact: the arena panics past it, and Compile audits
// that every link end is held by exactly one unit and every register is
// placed exactly once.
func (b *Builder) Arena(delay, capacity int) *link.Arena {
	a := link.NewArena(delay, capacity)
	b.c.arenas = append(b.c.arenas, a)
	b.placed = append(b.placed, placed{a: a, links: make([]link.Link, 0, capacity)})
	return a
}

// Place places the next link of a, one of the builder's arenas, with its
// A→B direction in register ab and its B→A direction in register ba
// (link.Arena.Place), and records it for Compile's audit.
func (b *Builder) Place(a *link.Arena, ab, ba int) link.Link {
	p := b.placedIn(a)
	if p == nil {
		panic("kernel: Place in an arena the builder did not create")
	}
	l := a.Place(ab, ba)
	p.links = append(p.links, l)
	return l
}

// placedIn returns the builder's record of arena a, nil if a is not one of
// its arenas.
func (b *Builder) placedIn(a *link.Arena) *placed {
	for i := range b.placed {
		if p := &b.placed[i]; p.a == a {
			return p
		}
	}
	return nil
}

// owner returns the placed link whose direction register r carries.
func (p *placed) owner(r int) link.Link {
	for _, l := range p.links {
		if ab, ba := l.Registers(); r == ab || r == ba {
			return l
		}
	}
	panic(fmt.Sprintf("kernel: register %d is claimed by no placed link", r))
}

// AddColumn appends a router-column unit: the lanes of one logical
// router (a single lane without cascading), evaluated together by
// cascade.Eval so they never split across workers. Every column of a plan
// has as many lanes as the first; AddColumn panics on one that differs.
// Units [0, columns) are the columns, in the order added.
func (b *Builder) AddColumn(lanes []*core.Router) {
	if b.c.colLanes == 0 {
		b.c.colLanes = len(lanes)
	}
	if len(lanes) == 0 || len(lanes) != b.c.colLanes {
		panic(fmt.Sprintf("kernel: a column of %d lanes in a plan of %d-lane columns", len(lanes), b.c.colLanes))
	}
	b.c.lanes = append(b.c.lanes, lanes...)
	b.c.cols++
}

// AddEndpoint appends an endpoint unit. The endpoints follow the columns,
// in the order added.
func (b *Builder) AddEndpoint(ep *nic.Endpoint) { b.c.eps = append(b.c.eps, ep) }

// Compile seals the plan. It audits the register placement against the
// link ends the units actually hold (a router column's forward and
// backward ports, an endpoint's channel lanes), which catches wiring
// drift, capacity mismatches and a bad placement at assembly time rather
// than as silent data corruption (or a silently slow sweep) mid-run:
//
//   - every arena is placed full;
//   - every register of every arena is claimed by exactly one link
//     direction (a full arena has as many link directions as registers,
//     so "none claimed twice" is also "none left unclaimed");
//   - every held end lies in one of the plan's arenas;
//   - every link end is held by exactly one unit, so every register has
//     exactly one reader;
//   - reading the registers of an arena in index order, the reading unit
//     never decreases: each unit's inputs are one contiguous run, and the
//     runs lie in unit order. That is the reader-major layout the per-cycle
//     byte budget in docs/KERNEL.md rests on.
//
// The plan keeps where each unit's run starts in each arena, which is
// what EvalUnits clears.
func (b *Builder) Compile() (*Compiled, error) {
	c := &b.c
	for ai := range b.placed {
		p := &b.placed[ai]
		if len(p.links) != p.a.Cap() {
			return nil, fmt.Errorf("kernel: arena %d (delay %d) placed %d of %d links", ai, p.a.Delay(), len(p.links), p.a.Cap())
		}
		rd := make([]int32, p.a.Registers())
		for r := range rd {
			rd[r] = noReader
		}
		for li, l := range p.links {
			ab, ba := l.Registers()
			for _, r := range [2]int{ab, ba} {
				if rd[r] != noReader {
					return nil, fmt.Errorf("kernel: arena %d (delay %d): register %d is claimed by two link directions (the second is %s)", ai, p.a.Delay(), r, l.Name())
				}
				rd[r] = ^int32(li)
			}
		}
		p.reader = rd
	}
	// hold records unit u as the reader of end's input register, once it
	// is the link's own end: a copy must stage into the link's other
	// register too. An unattached port (the zero End) holds nothing.
	hold := func(u int, end link.End) error {
		if end == (link.End{}) {
			return nil
		}
		a, r := end.Input()
		p := b.placedIn(a)
		if p == nil {
			return fmt.Errorf("kernel: an end held by unit %d reads register %d of an arena outside the plan", u, r)
		}
		// Every register is claimed (the arena is placed full and none
		// twice), so v is a unit or a placed link.
		if v := p.reader[r]; v >= 0 {
			l := p.owner(r)
			_, ba := l.Registers()
			return fmt.Errorf("kernel: link %s end %s is held by units %d and %d, want one", l.Name(), endName(r == ba), v, u)
		} else if l := p.links[^v]; end != l.A() && end != l.B() {
			_, ba := l.Registers()
			return fmt.Errorf("kernel: link %s end %s, held by unit %d, does not stage into its link's other register", l.Name(), endName(r == ba), u)
		}
		p.reader[r] = int32(u)
		return nil
	}
	var err error
	for i, r := range c.lanes {
		for fp := 0; fp < r.Config().Inputs && err == nil; fp++ {
			err = hold(i/c.colLanes, r.ForwardLink(fp))
		}
		for bp := 0; bp < r.Config().Outputs && err == nil; bp++ {
			err = hold(i/c.colLanes, r.BackwardLink(bp))
		}
	}
	for i, ep := range c.eps {
		ep.Ends(func(end link.End) {
			if err == nil {
				err = hold(c.cols+i, end)
			}
		})
	}
	if err != nil {
		return nil, err
	}
	for ai := range b.placed {
		p := &b.placed[ai]
		rd := p.reader
		for _, l := range p.links {
			ab, ba := l.Registers()
			if rd[ab] < 0 || rd[ba] < 0 {
				return nil, fmt.Errorf("kernel: link %s end %s is held by no unit", l.Name(), endName(rd[ba] < 0))
			}
		}
		for r := 1; r < len(rd); r++ {
			if rd[r] < rd[r-1] {
				return nil, fmt.Errorf("kernel: arena %d (delay %d): register %d is read by unit %d but register %d by unit %d; every unit's inputs must be one contiguous run, in unit order",
					ai, p.a.Delay(), r-1, rd[r-1], r, rd[r])
			}
		}
	}
	// Every register now has one reader and the readers never decrease,
	// so unit u's run starts after the registers of units [0, u).
	c.runs = make([][]int32, 0, len(b.placed))
	for _, p := range b.placed {
		run := make([]int32, c.Units()+1)
		for _, u := range p.reader {
			run[u+1]++
		}
		for u := 1; u < len(run); u++ {
			run[u] += run[u-1]
		}
		c.runs = append(c.runs, run)
	}
	plan := *c
	return &plan, nil
}

func endName(atA bool) string {
	if atA {
		return "A"
	}
	return "B"
}

// Compiled is the flattened execution plan: what a cycle reads, and
// nothing else. It implements clock.Kernel: the engine drives units by
// contiguous index range, serially or across workers, and each range
// clears the registers it read. Its arenas advance as latches of their own
// (Arenas; netsim.Build registers them with Engine.AddLatch).
type Compiled struct {
	lanes    []*core.Router // every column's lanes, colLanes per column
	cols     int            // units [0, cols) are columns, the rest endpoints
	colLanes int
	eps      []*nic.Endpoint

	// arenas holds every link pipeline register in the plan, grouped by
	// delay class and placed reader-major (see Compile).
	arenas []*link.Arena
	// runs[ai][u] is the first register of arenas[ai] that unit u reads,
	// and runs[ai][Units()] the arena's register count: units [lo, hi)
	// read registers [runs[ai][lo], runs[ai][hi]) of it.
	runs [][]int32
}

// Units implements clock.Kernel.
func (c *Compiled) Units() int { return c.cols + len(c.eps) }

// EvalUnits implements clock.Kernel: evaluate units [lo, hi) in index
// order, the columns in the range and then its endpoints, with direct
// calls per concrete type, then clear the registers they read in every
// arena's read plane, keeping the fault bytes. Each register has one
// reader, so a split of the units into ranges, evaluated in any order or
// concurrently, clears each register once, after its reader is done with
// it. Nothing else reads the plane before the arenas' latches
// (Arena.Commit, registered by whoever installs the plan) make it the
// next staging plane: no Send writes it this cycle, and no epilogue
// component reads it (fault injection only stamps fault bytes).
func (c *Compiled) EvalUnits(lo, hi int, cycle uint64) {
	w := c.colLanes
	for u := lo; u < min(hi, c.cols); u++ {
		cascade.Eval(c.lanes[u*w:(u+1)*w], cycle)
	}
	for _, ep := range c.eps[max(lo, c.cols)-c.cols : max(hi, c.cols)-c.cols] {
		ep.Eval(cycle)
	}
	for ai, a := range c.arenas {
		run := c.runs[ai]
		a.Clear(int(run[lo]), int(run[hi]))
	}
}

// CommitUnits implements clock.Kernel. It has nothing to do: routers and
// endpoints latch their state through link pipelines, which EvalUnits
// clears and the arenas' latches advance.
func (c *Compiled) CommitUnits(lo, hi int, cycle uint64) {}

// CommitBatch implements clock.Kernel. It has nothing to do either: each
// EvalUnits range clears the registers it read.
func (c *Compiled) CommitBatch(part, parts int, cycle uint64) {}

// SplitSmall implements the engine's small-kernel opt-in: SetWorkers(0)
// splits a plan of 128 units or more (Figure 3's size) over two lanes, as
// it does any kernel from 4,096. An EvalUnits range does its units' work
// and nothing more, so eight ranges a lane cost no more than one call.
func (c *Compiled) SplitSmall() {}

// Arenas returns the plan's link arenas, for introspection and tests.
func (c *Compiled) Arenas() []*link.Arena { return c.arenas }

// Links returns the total number of arena-resident links.
func (c *Compiled) Links() int {
	n := 0
	for _, a := range c.arenas {
		n += a.Len()
	}
	return n
}
