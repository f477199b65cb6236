// Package kernel compiles an assembled METRO network into a flattened
// struct-of-arrays execution plan — the clock engine's one cycle path.
//
// Driving each component through a virtual Eval and Commit, with link
// pipelines scattered across hundreds of small allocations, pays a
// pointer-chasing tax on every cycle. A compiled kernel removes it. Link
// pipeline registers live in per-delay-class arenas (link.Arena), one
// register per link direction in delay+1 parallel planes, placed
// reader-major: every unit's inputs are one contiguous run of registers, in
// unit order, so a unit's per-cycle reads are adjacent cache lines and the
// whole commit phase of the interconnect is a copy and a clear per plane
// over a register range. Evaluation units — router columns and endpoints —
// are stored as parallel arrays (kind, index) walked by plain loops with
// direct, devirtualized calls per concrete type. Which link ends attach to
// which unit is known only to the Builder: Compile audits the wiring and
// the register placement against it once, and the plan keeps none of it,
// since no cycle reads it.
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
// router column is a single unit because its cascade lanes share an LFSR
// stream and the wired-AND IN-USE check within a cycle. netsim.Reference
// steps the same units in the same order through the virtual interface;
// the differential tests hold the two bit-identical.
package kernel

import (
	"fmt"

	"metro/internal/cascade"
	"metro/internal/core"
	"metro/internal/link"
	"metro/internal/nic"
)

// unitKind discriminates the parallel unit arrays.
type unitKind uint8

const (
	unitColumn   unitKind = iota // a router column: all its lanes, one unit
	unitEndpoint                 // a network endpoint
)

// LinkRef names one end of an arena-resident link: the arena's index in the
// compiled plan, the link's index within that arena, and which end the unit
// holds. The A (upstream) end reads the link's B→A register, the B end its
// A→B register; that register is the unit's input.
type LinkRef struct {
	Arena int32
	Index int32
	AtA   bool
}

// Builder accumulates the flattened layout while netsim elaborates a
// network. Feed it units in index order, then Compile.
type Builder struct {
	c Compiled

	// CSR adjacency, for Compile's audit: unit u's attached link ends are
	// adj[adjStart[u]:adjStart[u+1]].
	adjStart []int32
	adj      []LinkRef
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Arena creates a link arena for one delay class, registers it with the
// plan and returns it with its plan index, for building LinkRefs.
// Capacity must be exact: the arena panics past it, and Compile audits
// that every link end is attached to exactly one unit and every register
// is placed exactly once.
func (b *Builder) Arena(delay, capacity int) (*link.Arena, int32) {
	a := link.NewArena(delay, capacity)
	b.c.arenas = append(b.c.arenas, a)
	return a, int32(len(b.c.arenas) - 1)
}

// AddColumn appends a router-column unit: the lanes of one logical
// router (a single lane without cascading), evaluated together by
// cascade.Eval so they never split across workers. Every column of a plan
// has as many lanes as the first; AddColumn panics on one that differs.
// attached lists the arena-resident links wired to the lanes' forward and
// backward ports.
func (b *Builder) AddColumn(lanes []*core.Router, attached ...LinkRef) {
	if b.c.colLanes == 0 {
		b.c.colLanes = int32(len(lanes))
	}
	if len(lanes) == 0 || len(lanes) != int(b.c.colLanes) {
		panic(fmt.Sprintf("kernel: a column of %d lanes in a plan of %d-lane columns", len(lanes), b.c.colLanes))
	}
	b.addUnit(unitColumn, int32(len(b.c.lanes)), attached)
	b.c.lanes = append(b.c.lanes, lanes...)
}

// AddEndpoint appends an endpoint unit.
func (b *Builder) AddEndpoint(ep *nic.Endpoint, attached ...LinkRef) {
	b.addUnit(unitEndpoint, int32(len(b.c.eps)), attached)
	b.c.eps = append(b.c.eps, ep)
}

func (b *Builder) addUnit(kind unitKind, idx int32, attached []LinkRef) {
	b.c.kinds = append(b.c.kinds, kind)
	b.c.idxs = append(b.c.idxs, idx)
	b.adjStart = append(b.adjStart, int32(len(b.adj)))
	b.adj = append(b.adj, attached...)
}

// Compile seals the plan. It audits the adjacency tables and the register
// placement against the arenas, which catches wiring drift, capacity
// mismatches and a bad placement at assembly time rather than as silent
// data corruption (or a silently slow sweep) mid-run:
//
//   - every arena is placed full;
//   - every register of every arena is claimed by exactly one link
//     direction (a full arena has as many link directions as registers,
//     so "none claimed twice" is also "none left unclaimed");
//   - every link end is attached to exactly one unit, so every register
//     has exactly one reader;
//   - reading the registers of an arena in index order, the reading unit
//     never decreases: each unit's inputs are one contiguous run, and the
//     runs lie in unit order. That is the reader-major layout the per-cycle
//     byte budget in docs/KERNEL.md rests on.
//
// The plan it returns keeps no adjacency: the audit is its one reader.
func (b *Builder) Compile() (*Compiled, error) {
	c := &b.c
	b.adjStart = append(b.adjStart, int32(len(b.adj)))
	// reader[ai][r] is the unit reading register r of arena ai: noReader
	// until claimed by a link direction, unread until a unit attaches.
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
	for u := 0; u < c.Units(); u++ {
		for _, ref := range b.adj[b.adjStart[u]:b.adjStart[u+1]] {
			if int(ref.Arena) >= len(c.arenas) || int(ref.Index) >= c.arenas[ref.Arena].Len() {
				return nil, fmt.Errorf("kernel: adjacency ref %+v of unit %d names no placed link", ref, u)
			}
			l := c.arenas[ref.Arena].At(int(ref.Index))
			r := inputRegister(l, ref.AtA)
			if prev := reader[ref.Arena][r]; prev != unread {
				return nil, fmt.Errorf("kernel: link %s end %s is attached to units %d and %d, want one", l.Name(), endName(ref.AtA), prev, u)
			}
			reader[ref.Arena][r] = int32(u)
		}
	}
	for ai, rd := range reader {
		a := c.arenas[ai]
		for li := 0; li < a.Len(); li++ {
			ab, ba := a.At(li).Registers()
			if rd[ab] == unread || rd[ba] == unread {
				return nil, fmt.Errorf("kernel: link %s end %s is attached to no unit", a.At(li).Name(), endName(rd[ba] == unread))
			}
		}
		for r := 1; r < len(rd); r++ {
			if rd[r] < rd[r-1] {
				return nil, fmt.Errorf("kernel: arena %d (delay %d): register %d is read by unit %d but register %d by unit %d; every unit's inputs must be one contiguous run, in unit order",
					ai, a.Delay(), r-1, rd[r-1], r, rd[r])
			}
		}
	}
	plan := *c
	return &plan, nil
}

// inputRegister returns the register a link's A or B end reads.
func inputRegister(l *link.Link, atA bool) int {
	ab, ba := l.Registers()
	if atA {
		return ba
	}
	return ab
}

func endName(atA bool) string {
	if atA {
		return "A"
	}
	return "B"
}

// Compiled is the flattened execution plan: what a cycle reads, and
// nothing else. It implements clock.Kernel: the engine drives units by
// contiguous index range and the batched link shuttle by partition,
// serially or across workers.
type Compiled struct {
	// Parallel unit arrays: unit u has kind kinds[u] and indexes the
	// kind's typed slice at idxs[u] (a column at its first lane).
	kinds []unitKind
	idxs  []int32

	lanes    []*core.Router // every column's lanes, colLanes per column
	colLanes int32
	eps      []*nic.Endpoint

	// arenas holds every link pipeline register in the plan, grouped by
	// delay class and placed reader-major (see Compile).
	arenas []*link.Arena
}

// Units implements clock.Kernel.
func (c *Compiled) Units() int { return len(c.kinds) }

// EvalUnits implements clock.Kernel: evaluate units [lo, hi) in index
// order with direct calls per concrete type.
func (c *Compiled) EvalUnits(lo, hi int, cycle uint64) {
	// Reslicing to the partition lets the compiler hoist the range's
	// bounds check out of the loop: kinds and idxs share a length, so
	// the per-unit loads below compile check-free.
	kinds := c.kinds[lo:hi]
	idxs := c.idxs[lo:hi:hi]
	w := c.colLanes
	for u := range kinds {
		i := idxs[u]
		switch kinds[u] {
		case unitColumn:
			cascade.Eval(c.lanes[i:i+w], cycle)
		case unitEndpoint:
			c.eps[i].Eval(cycle)
		}
	}
}

// CommitUnits implements clock.Kernel. It has nothing to do: routers and
// endpoints latch their state through link pipelines, which CommitBatch
// shuttles.
func (c *Compiled) CommitUnits(lo, hi int, cycle uint64) {}

// CommitBatch implements clock.Kernel: shuttle partition part of every
// arena's registers. Partitions are disjoint register ranges, so the engine
// may run them concurrently.
func (c *Compiled) CommitBatch(part, parts int, cycle uint64) {
	for _, a := range c.arenas {
		n := a.Registers()
		a.Shuttle(part*n/parts, (part+1)*n/parts)
	}
}

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
