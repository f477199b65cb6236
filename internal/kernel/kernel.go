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
// already observe, and a link.Link placed in an arena is a view over
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
	"slices"

	"metro/internal/cascade"
	"metro/internal/core"
	"metro/internal/link"
	"metro/internal/nic"
)

// Builder accumulates the flattened layout while netsim elaborates a
// network. Feed it arenas and units, then Compile.
type Builder struct{ c Compiled }

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Arena creates a link arena for one delay class and registers it with the
// plan. Capacity must be exact: the arena panics past it, and Compile audits
// that every link end is held by exactly one unit and every register is
// placed exactly once.
func (b *Builder) Arena(delay, capacity int) *link.Arena {
	a := link.NewArena(delay, capacity)
	b.c.arenas = append(b.c.arenas, a)
	return a
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
	// reader[ai][r] is the unit reading register r of arena ai: noReader
	// until claimed by a link direction, unread until a unit holds its end.
	const noReader, unread = -2, -1
	reader := make([][]int32, len(c.arenas))
	for ai, a := range c.arenas {
		if a.Len() != a.Cap() {
			return nil, fmt.Errorf("kernel: arena %d (delay %d) placed %d of %d links", ai, a.Delay(), a.Len(), a.Cap())
		}
		rd := make([]int32, a.Registers())
		for r := range rd {
			rd[r] = noReader
		}
		for li := 0; li < a.Len(); li++ {
			ab, ba := a.At(li).Registers()
			for _, r := range [2]int{ab, ba} {
				if rd[r] != noReader {
					return nil, fmt.Errorf("kernel: arena %d (delay %d): register %d is claimed by two link directions (the second is %s)", ai, a.Delay(), r, a.At(li).Name())
				}
				rd[r] = unread
			}
		}
		reader[ai] = rd
	}
	// hold records unit u as the reader of end's input register, once it
	// is the link's own end: a copy must stage into the link's other
	// register too. An unattached port (the zero End) holds nothing.
	hold := func(u int, end link.End) error {
		if end == (link.End{}) {
			return nil
		}
		a, r := end.Input()
		l := end.Link()
		_, ba := l.Registers()
		switch ai := slices.Index(c.arenas, a); {
		case ai < 0:
			return fmt.Errorf("kernel: link %s end %s, held by unit %d, lies in an arena outside the plan", l.Name(), endName(r == ba), u)
		case reader[ai][r] != unread:
			return fmt.Errorf("kernel: link %s end %s is held by units %d and %d, want one", l.Name(), endName(r == ba), reader[ai][r], u)
		case end != l.A() && end != l.B():
			return fmt.Errorf("kernel: link %s end %s, held by unit %d, does not stage into its link's other register", l.Name(), endName(r == ba), u)
		default:
			reader[ai][r] = int32(u)
			return nil
		}
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
	for ai, rd := range reader {
		a := c.arenas[ai]
		for li := 0; li < a.Len(); li++ {
			ab, ba := a.At(li).Registers()
			if rd[ab] == unread || rd[ba] == unread {
				return nil, fmt.Errorf("kernel: link %s end %s is held by no unit", a.At(li).Name(), endName(rd[ba] == unread))
			}
		}
		for r := 1; r < len(rd); r++ {
			if rd[r] < rd[r-1] {
				return nil, fmt.Errorf("kernel: arena %d (delay %d): register %d is read by unit %d but register %d by unit %d; every unit's inputs must be one contiguous run, in unit order",
					ai, a.Delay(), r-1, rd[r-1], r, rd[r])
			}
		}
	}
	// Every register now has one reader and the readers never decrease,
	// so unit u's run starts after the registers of units [0, u).
	c.runs = make([][]int32, 0, len(reader))
	for _, rd := range reader {
		run := make([]int32, c.Units()+1)
		for _, u := range rd {
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
