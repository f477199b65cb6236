// Package link models the point-to-point interconnect between METRO routing
// components and network endpoints.
//
// METRO pipelines data across the wires between routers: each link behaves
// as a configurable number of pipeline registers in each direction (the
// paper's Variable Turn Delay, Section 5.1 — "we can model the wire between
// two components as a number of pipeline registers"). A Link therefore
// carries, per clock cycle and per direction, one word.Word plus the
// out-of-band backward control bit (BCB) used for fast path reclamation.
//
// A Link has two ends, A and B. By convention the A end attaches to the
// upstream element (an endpoint's injection port or a router's backward
// port) and the B end to the downstream element (a router's forward port or
// an endpoint's delivery port). Forward traffic (source toward destination)
// flows A→B; reversed-connection traffic and the BCB flow B→A.
//
// Links are the model's clock-edge state and implement clock.Latch: ends
// stage values during the components' Eval via Send / SendBCB, and the
// pipelines shift at Commit, so values become visible to the far end after
// the configured delay. A hand-wired link is registered with
// Engine.AddLatch; a built network's links are shuttled by their arena.
//
// Fault injection hooks (Corruptor functions and Kill) model broken or
// noisy wires for the fault-tolerance experiments.
//
// # Memory layout
//
// Every link lives in an Arena (New is an arena of one link). An arena
// keeps one 8-byte register per link direction in delay+1 parallel planes
// — plane 0 is what the sender staged this cycle, plane delay is what the
// reader sees — plus, per register, the End that reads it, which carries
// the register's fault byte. Registers are placed by the reader, not by the
// link: whoever assembles a network (netsim.Build) gives each unit a
// contiguous run of registers for everything it reads, so a unit's
// per-cycle reads are a few adjacent cache lines and the commit phase is a
// copy and a clear per plane over a register range. A Link is a small view
// (two register indices and its fault state, absent while the wire is
// healthy) that the per-cycle receive path never loads: Recv tests the
// register and the End's fault byte, and only a dead link or a corrupted
// direction reaches the Link through the slow path. Nor does an arena store
// its links' names: they are derived on demand (Arena.SetNamer).
// docs/KERNEL.md ("Memory layout and the per-cycle byte budget") has the
// picture and the numbers.
package link

import (
	"fmt"
	"math"

	"metro/internal/word"
)

// Corruptor transforms words as they exit a link, modeling a faulty wire.
// A nil Corruptor leaves the link healthy.
type Corruptor func(word.Word) word.Word

// reg is one pipeline register: a word plus the BCB, packed into 8 bytes so
// eight of a reader's inputs share a cache line.
type reg struct {
	payload uint32
	kind    word.Kind
	bits    uint8
	bcb     bool
}

func (r reg) word() word.Word {
	return word.Word{Payload: r.payload, Kind: r.kind, Bits: r.bits}
}

func (r *reg) setWord(w word.Word) {
	r.payload, r.kind, r.bits = w.Payload, w.Kind, w.Bits
}

// Link is a bidirectional, pipelined chip-to-chip connection: a view over
// two registers of an arena (one per direction, in every plane) plus the
// fault state of the wire. Register indices are int32: NewArena bounds an
// arena's registers to that range.
type Link struct {
	a      *Arena
	ab, ba int32   // register carrying A→B (read at B) and B→A (read at A)
	i      int32   // placement index in the arena, what its namer is asked
	f      *faults // nil while the wire is healthy
}

// faults is the fault state of a killed or corrupted wire, kept off the
// Link so that the healthy many pay one nil pointer for it.
type faults struct {
	corruptAB Corruptor
	corruptBA Corruptor
	dead      bool
}

// New returns a link whose wires contribute delay pipeline stages in each
// direction (the paper's vtd; delay must be >= 1). It is an arena of one
// link: hand-wired links and netsim's arena-resident ones are the same code.
func New(name string, delay int) *Link {
	if delay < 1 {
		panic(fmt.Sprintf("link %s: delay must be >= 1, got %d", name, delay))
	}
	a := NewArena(delay, 1)
	a.SetNamer(func(int) string { return name })
	return a.New()
}

// Name returns the link's identifier (used in traces, fault plans and
// wiring errors), as its arena's namer derives it; "" in an arena without
// one.
func (l *Link) Name() string {
	if l.a.namer == nil {
		return ""
	}
	return l.a.namer(int(l.i))
}

// Delay returns the pipeline depth per direction.
func (l *Link) Delay() int { return l.a.delay }

// Registers returns the link's two register indices within its arena: ab
// carries A→B traffic and is read by the B end, ba carries B→A traffic and
// is read by the A end.
func (l *Link) Registers() (ab, ba int) { return int(l.ab), int(l.ba) }

// Commit implements clock.Latch, latching the values staged during Eval:
// the link's two registers move one plane toward their readers and the
// staged plane clears.
func (l *Link) Commit(cycle uint64) {
	l.a.shift(int(l.ab))
	l.a.shift(int(l.ba))
}

// SetCorruptor installs fault hooks applied to words exiting the link in
// each direction. Either may be nil.
func (l *Link) SetCorruptor(ab, ba Corruptor) {
	f := l.faultState()
	f.corruptAB, f.corruptBA = ab, ba
	l.syncFault()
}

// Kill marks the link dead: both directions deliver only Empty words and a
// deasserted BCB, as a severed wire would.
func (l *Link) Kill() {
	l.faultState().dead = true
	l.syncFault()
}

// Revive clears a previous Kill. In-flight contents were lost.
func (l *Link) Revive() {
	l.faultState().dead = false
	l.syncFault()
}

// Dead reports whether the link has been killed.
func (l *Link) Dead() bool { return l.f != nil && l.f.dead }

// faultState returns the link's fault state for writing, making it if the wire
// was healthy.
//
//metrovet:alloc once per fault event on a healthy wire (a fault injector's Kill or SetCorruptor), never per cycle
func (l *Link) faultState() *faults {
	if l.f == nil {
		l.f = &faults{}
	}
	return l.f
}

// syncFault recomputes the fault bytes of the two ends: a reader takes the
// slow path while the link is dead or its arriving direction is corrupted.
// A wire that is healthy again drops its fault state.
func (l *Link) syncFault() {
	var ab, ba bool
	if f := l.f; f != nil {
		ab, ba = f.dead || f.corruptAB != nil, f.dead || f.corruptBA != nil
		if !ab && !ba {
			l.f = nil
		}
	}
	l.a.ends[l.ab].fault = faultByte(ab)
	l.a.ends[l.ba].fault = faultByte(ba)
}

func faultByte(faulty bool) uint8 {
	if faulty {
		return 1
	}
	return 0
}

// A returns the upstream end of the link.
func (l *Link) A() *End { return &l.a.ends[l.ba] }

// B returns the downstream end of the link.
func (l *Link) B() *End { return &l.a.ends[l.ab] }

// End is one side's interface to a link. All methods follow the two-phase
// clock discipline: Send/SendBCB stage values for the current cycle, while
// Recv/RecvBCB observe values committed at the end of the previous cycle.
//
// Register storage is fixed for the life of an arena (commits move values,
// never the backing arrays), so an end caches the addresses it touches and
// the healthy per-cycle paths never load the Link.
type End struct {
	in    *reg // the arriving direction's output-plane register
	stage *reg // the departing direction's staged register
	l     *Link
	fault uint8 // nonzero while reads of in must go through incoming
	atA   bool
}

// Link returns the underlying link.
func (e *End) Link() *Link { return e.l }

// Input returns the arena holding the register this end reads and the
// register's index in it: the link's B→A register at the A end, its A→B
// register at the B end.
func (e *End) Input() (*Arena, int) {
	if e.atA {
		return e.l.a, int(e.l.ba)
	}
	return e.l.a, int(e.l.ab)
}

// Send stages the word this end drives onto the link this cycle. If Send is
// not called during a cycle the end drives Empty.
func (e *End) Send(w word.Word) { e.stage.setWord(w) }

// SendBCB stages the backward control bit this end drives this cycle.
// The BCB is only meaningful traveling B→A (toward the source), but both
// directions carry it for symmetry.
func (e *End) SendBCB(b bool) { e.stage.bcb = b }

// Recv returns the word arriving at this end this cycle. An Empty register
// reads as the zero Word with no fault check: a dead link delivers Empty
// and a corruptor is never invoked on Empty, so only a word actually
// arriving consults the fault byte.
func (e *End) Recv() word.Word {
	if e.in.kind == word.Empty {
		return word.Word{}
	}
	return e.arriving()
}

// arriving is Recv for a non-Empty register, out of line so that Recv and
// In.Recv inline into their callers' port loops.
func (e *End) arriving() word.Word {
	r := *e.in
	if e.fault != 0 {
		r = e.incoming()
	}
	return r.word()
}

// RecvBCB returns the backward control bit arriving at this end this cycle.
func (e *End) RecvBCB() bool {
	if e.fault != 0 {
		// The fault hook still observes the word (stateful corruptors count
		// on seeing every exiting word exactly as incoming delivers it).
		return e.incoming().bcb
	}
	return e.in.bcb
}

// incoming is the dead-link / fault-hook receive path, kept out of line so
// Recv and RecvBCB inline. A nonzero fault byte means the link has fault
// state (syncFault).
func (e *End) incoming() reg {
	f := e.l.f
	if f.dead {
		return reg{}
	}
	r := *e.in
	c := f.corruptAB
	if e.atA {
		c = f.corruptBA
	}
	if c != nil && r.kind != word.Empty {
		r.setWord(c(r.word()))
	}
	return r
}

// In is a reader's by-value view of one end's arriving register. A unit
// that watches many mostly idle inputs every cycle (a router's forward
// ports) holds these in one array: an idle input then costs the view and
// the register, both dense, and never the End.
type In struct {
	reg *reg
	e   *End
}

// In returns the end's input view; a nil end yields the zero (unattached)
// view.
func (e *End) In() In {
	if e == nil {
		return In{}
	}
	return In{reg: e.in, e: e}
}

// End returns the viewed end, nil for the zero view.
func (in In) End() *End { return in.e }

// Recv returns the word arriving this cycle, exactly as End.Recv does, but
// loads the End only when a word is actually arriving.
func (in In) Recv() word.Word {
	if in.reg.kind == word.Empty {
		return word.Word{}
	}
	return in.e.arriving()
}

// Arena is the backing store of many same-delay links: one register per
// link direction, held in delay+1 parallel planes (plane 0 staged by the
// sender, plane delay seen by the reader), with the reading End beside each
// register. Which register a link direction occupies is the caller's
// choice (Place), so a network builder can lay every unit's inputs out
// contiguously; New is the default placement.
//
// Links placed in an arena behave exactly like ones from New, which is
// itself an arena of one. The one discipline change is that the owner calls
// Arena.Shuttle for the commit phase and must not also register the links
// with Engine.AddLatch (double-shifting would advance a wire two cycles).
type Arena struct {
	delay  int
	planes [][]reg
	ends   []End  // one per register: the End reading it
	links  []Link // backing array; Len() of these are initialized
	used   int
	namer  func(i int) string
}

// NewArena returns an arena with room for capacity links of the given
// pipeline delay (delay must be >= 1, matching New). Its registers, two
// per link, must number at most math.MaxInt32.
func NewArena(delay, capacity int) *Arena {
	if delay < 1 {
		panic(fmt.Sprintf("link arena: delay must be >= 1, got %d", delay))
	}
	if capacity < 0 || capacity > math.MaxInt32/2 {
		panic(fmt.Sprintf("link arena: capacity %d outside [0, %d]", capacity, math.MaxInt32/2))
	}
	n := 2 * capacity
	a := &Arena{
		delay:  delay,
		planes: make([][]reg, delay+1),
		ends:   make([]End, n),
		links:  make([]Link, capacity),
	}
	regs := make([]reg, (delay+1)*n)
	for p := range a.planes {
		a.planes[p] = regs[p*n : (p+1)*n : (p+1)*n]
	}
	return a
}

// Delay returns the pipeline depth shared by every link in the arena.
func (a *Arena) Delay() int { return a.delay }

// Len returns the number of links placed so far.
func (a *Arena) Len() int { return a.used }

// Cap returns the arena's fixed capacity in links.
func (a *Arena) Cap() int { return len(a.links) }

// Registers returns the arena's register count: two per link of capacity.
func (a *Arena) Registers() int { return len(a.ends) }

// SetNamer installs the function that names the arena's links: namer(i) is
// the name of the i'th placed link. The arena stores no names; whoever
// places many links derives theirs from what it keeps anyway (netsim from
// its topology), and the text is built only when Name asks.
func (a *Arena) SetNamer(namer func(i int) string) { a.namer = namer }

// New places the next link at the default position, registers 2i and 2i+1
// for the i'th link.
func (a *Arena) New() *Link { return a.Place(2*a.used, 2*a.used+1) }

// Place creates the next link with its A→B direction in register ab and
// its B→A direction in register ba. It panics when the arena is full or a
// register is out of range: capacities and placements are computed exactly
// at assembly time, so either is a compiler bug, not an operational
// condition. Whether the placement as a whole claims every register exactly
// once is the assembler's audit (kernel.Builder.Compile), not checked here.
//
//metrovet:truncate ab, ba and the placement index are below the register count, which NewArena bounds by math.MaxInt32
func (a *Arena) Place(ab, ba int) *Link {
	if a.used == len(a.links) {
		panic(fmt.Sprintf("link arena: capacity %d exhausted", len(a.links)))
	}
	if n := len(a.ends); ab < 0 || ab >= n || ba < 0 || ba >= n || ab == ba {
		panic(fmt.Sprintf("link arena: link %d placed at registers %d, %d of %d", a.used, ab, ba, n))
	}
	l := &a.links[a.used]
	*l = Link{a: a, ab: int32(ab), ba: int32(ba), i: int32(a.used)}
	a.used++
	staged, out := a.planes[0], a.planes[a.delay]
	a.ends[ba] = End{l: l, atA: true, in: &out[ba], stage: &staged[ab]}
	a.ends[ab] = End{l: l, atA: false, in: &out[ab], stage: &staged[ba]}
	return l
}

// At returns the i'th placed link (creation order).
func (a *Arena) At(i int) *Link { return &a.links[i] }

// Shuttle advances registers [lo, hi) by one cycle, exactly as if Commit
// had run on every link direction placed there: each plane takes the one
// before it, output plane first, and the staged plane clears. Dead links
// shuttle like live ones (Kill suppresses delivery at the reading end, not
// propagation), so the sweep is branch-free. Disjoint ranges touch disjoint
// registers, which is what makes the commit phase safe to partition across
// workers.
func (a *Arena) Shuttle(lo, hi int) {
	for p := a.delay; p > 0; p-- {
		copy(a.planes[p][lo:hi], a.planes[p-1][lo:hi])
	}
	clear(a.planes[0][lo:hi])
}

// shift advances one register by one cycle (the per-link Commit path).
func (a *Arena) shift(r int) {
	for p := a.delay; p > 0; p-- {
		a.planes[p][r] = a.planes[p-1][r]
	}
	a.planes[0][r] = reg{}
}
