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
// Links are the model's clock-edge state: ends stage values during the
// components' Eval via Send / SendBCB, and the wires latch after every
// Eval, so values become visible to the far end after the configured
// delay. A built network's arenas latch as a whole (Arena.Clear, by the
// units that read the registers, then Arena.Commit); a hand-wired link
// latches on its own (Link.Commit, registered with Engine.AddLatch).
//
// Fault injection hooks (Corruptor functions and Kill) model broken or
// noisy wires for the fault-tolerance experiments.
//
// # Memory layout
//
// Every link lives in an Arena (New is an arena of one link). An arena
// keeps one 8-byte register per link direction in delay+1 parallel planes
// used as a ring: senders stage into the head plane and readers read the
// plane after it, the one staged delay cycles ago, so no value moves once
// written. Once its readers are done, the plane just read is cleared, and
// the commit phase advances the head; the cleared plane is next cycle's
// staging plane. Each register carries its own fault byte, stamped into
// every plane. Registers are placed by the reader, not by the link:
// whoever assembles a network (netsim.Build) gives each unit a contiguous
// run of registers for everything it reads, so a unit's per-cycle reads
// are a few adjacent cache lines and a range of units clears its reads as
// one register range. An arena holds its planes and nothing per link or
// per register: a wire is its registers. An End is a value, the arena and
// two register indices, that a unit holds in its own port array; a Link is
// a value too, the arena, its two registers and its placement index, that
// whoever placed it keeps or rebuilds (FromA). The per-cycle receive path
// tests the register alone; only a dead or corrupted wire reaches the
// arena's fault table, keyed by register and absent while every wire is
// healthy. Ends are computed from a link's registers (Link.A, Link.B) and
// names derived on demand from the placement index (Arena.SetNamer).
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

// reg is one pipeline register: a word, the BCB and the register's fault
// byte, packed into 8 bytes so eight of a reader's inputs share a cache
// line. The fault byte is nonzero while reads of the register must go
// through the slow path (End.incoming); it is the same in every plane.
type reg struct {
	payload uint32
	kind    word.Kind
	bits    uint8
	bcb     bool
	fault   uint8
}

func (r reg) word() word.Word {
	return word.Word{Payload: r.payload, Kind: r.kind, Bits: r.bits}
}

func (r *reg) setWord(w word.Word) {
	r.payload, r.kind, r.bits = w.Payload, w.Kind, w.Bits
}

// Link is a bidirectional, pipelined chip-to-chip connection: a value
// naming two registers of an arena (one per direction, in every plane) and
// the link's placement index, which is all its name is derived from. Its
// methods act on the arena, so any copy of a Link is the same wire. Register
// indices are int32: NewArena bounds an arena's registers to that range.
type Link struct {
	a      *Arena
	ab, ba int32 // register carrying A→B (read at B) and B→A (read at A)
	i      int   // placement index: the i'th link placed in the arena
}

// fault is the fault state of one register: whether its wire is dead,
// and the hook applied to words read from it. The arena keeps it in a
// table indexed by register that exists only while some wire is faulty.
type fault struct {
	corrupt Corruptor
	dead    bool
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
	l := a.Place(0, 1)
	return &l
}

// FromA returns the link whose A end is a, placed i'th in a's arena. A link
// is its registers and its placement index, so whoever keeps its A end and
// knows where it was placed (netsim, from its topology) has the link: the
// arena keeps no table of links.
func FromA(a End, i int) Link { return Link{a: a.a, ab: a.s, ba: a.r, i: i} }

// Name returns the link's identifier (used in traces, fault plans and
// wiring errors), as its arena's namer derives it from the placement
// index; "" in an arena without one.
func (l Link) Name() string {
	if l.a.namer == nil {
		return ""
	}
	return l.a.namer(l.i)
}

// Delay returns the pipeline depth per direction.
func (l Link) Delay() int { return l.a.delay }

// Registers returns the link's two register indices within its arena: ab
// carries A→B traffic and is read by the B end, ba carries B→A traffic and
// is read by the A end.
func (l Link) Registers() (ab, ba int) { return int(l.ab), int(l.ba) }

// Commit implements clock.Latch for a link latched on its own, latching
// the values staged during Eval: the link's two registers move one step
// along the ring toward their readers and the staged one clears. The
// arena's head stays where it is, so the arena's other links are
// untouched; a link whose arena latches as a whole (Arena.Commit) must not
// also be registered on its own.
func (l Link) Commit(cycle uint64) {
	l.a.shift(l.ab)
	l.a.shift(l.ba)
}

// Clear empties the link's two registers in the plane its ends read this
// cycle, as Arena.Clear does for a register range, keeping their fault
// bytes. It is that clear written link by link, for a stepper that commits
// each link itself (netsim.Reference) and then lets the arena latch
// advance. It takes a pointer, as End's methods do, so that the compiler
// generates no pointer wrapper repeating its register index checks.
func (l *Link) Clear() {
	rs, ab, ba := l.a.read, l.ab, l.ba
	rs[ab] = reg{fault: rs[ab].fault}
	rs[ba] = reg{fault: rs[ba].fault}
}

// SetCorruptor installs fault hooks applied to words exiting the link in
// each direction. Either may be nil.
func (l Link) SetCorruptor(ab, ba Corruptor) {
	l.a.setFault(l.ab, func(f *fault) { f.corrupt = ab })
	l.a.setFault(l.ba, func(f *fault) { f.corrupt = ba })
}

// Kill marks the link dead: both directions deliver only Empty words and a
// deasserted BCB, as a severed wire would.
func (l Link) Kill() { l.setDead(true) }

// Revive clears a previous Kill. In-flight contents were lost.
func (l Link) Revive() { l.setDead(false) }

func (l Link) setDead(dead bool) {
	l.a.setFault(l.ab, func(f *fault) { f.dead = dead })
	l.a.setFault(l.ba, func(f *fault) { f.dead = dead })
}

// Dead reports whether the link has been killed. It takes a pointer, as
// Clear does.
func (l *Link) Dead() bool { return l.a.faultOf(l.ab).dead }

// A returns the upstream end of the link.
func (l Link) A() End { return End{a: l.a, r: l.ba, s: l.ab} }

// B returns the downstream end of the link.
func (l Link) B() End { return End{a: l.a, r: l.ab, s: l.ba} }

// End is one side's interface to a link. All methods follow the two-phase
// clock discipline: Send/SendBCB stage values for the current cycle, while
// Recv/RecvBCB observe values committed at the end of the previous cycle.
//
// An end is a value, its arena and two register indices, that a unit holds
// in its own port array: a healthy per-cycle path loads the unit's copy,
// the arena's header (the current staging and read planes) and the
// register, and never the arena's fault table. The zero End is an
// unattached port, whose methods must not be called. The methods take a
// pointer, as a port array element is addressed in place, so that the
// compiler generates no pointer wrapper repeating each register index
// check; an End returned by A or B is bound to a variable before its
// methods are called.
type End struct {
	a    *Arena
	r, s int32 // the register this end reads, the one it stages into
}

// Dead reports whether the end's link has been killed, as Link.Dead does,
// but reads the arena's fault table only when the register's fault byte is
// set.
func (e *End) Dead() bool { return e.a.read[e.r].fault != 0 && e.a.faults[e.r].dead }

// Input returns the arena holding the register this end reads and the
// register's index in it: the link's B→A register at the A end, its A→B
// register at the B end.
func (e *End) Input() (*Arena, int) { return e.a, int(e.r) }

// Send stages the word this end drives onto the link this cycle. If Send is
// not called during a cycle the end drives Empty.
func (e *End) Send(w word.Word) { e.a.stage[e.s].setWord(w) }

// SendBCB stages the backward control bit this end drives this cycle.
// The BCB is only meaningful traveling B→A (toward the source), but both
// directions carry it for symmetry.
func (e *End) SendBCB(b bool) { e.a.stage[e.s].bcb = b }

// Recv returns the word arriving at this end this cycle. An Empty register
// reads as the zero Word with no fault check: a dead link delivers Empty
// and a corruptor is never invoked on Empty, so only a word actually
// arriving consults the fault byte.
func (e *End) Recv() word.Word {
	if e.a.read[e.r].kind == word.Empty {
		return word.Word{}
	}
	return e.arriving()
}

// RecvBCB returns the backward control bit arriving at this end this cycle.
func (e *End) RecvBCB() bool {
	r := e.a.read[e.r]
	if r.fault != 0 {
		// The fault hook still observes the word (stateful corruptors count
		// on seeing every exiting word exactly as incoming delivers it).
		r = e.incoming()
	}
	return r.bcb
}

// Arena is the backing store of many same-delay links: one register per
// link direction, held in delay+1 parallel planes used as a ring. Senders
// stage into plane head; readers read plane head+1 (mod delay+1), which
// was the head delay cycles ago. Which register a link direction occupies
// is the caller's choice (Place), so a network builder can lay every
// unit's inputs out contiguously. The arena records of its links only
// how many were placed: a placed Link is a value its placer keeps.
//
// Links placed in an arena behave exactly like ones from New, which is
// itself an arena of one whose head never moves. An owner that latches the
// arena as a whole clears the plane just read (Arena.Clear, over any
// partition of the registers) and then advances the head (Arena.Commit,
// a clock.Latch), and must not also latch its links one by one with
// Link.Commit: that would advance a wire two cycles.
type Arena struct {
	// stage and read are the current head plane and the plane after it:
	// the header every Send and Recv loads.
	stage, read []reg
	planes      [][]reg
	head        int
	delay       int
	faulty      int     // registers whose fault byte is set
	faults      []fault // by register, while some wire is faulty; nil while every wire is healthy
	used        int     // links placed so far
	namer       func(i int) string
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
	}
	regs := make([]reg, (delay+1)*n)
	for p := range a.planes {
		a.planes[p] = regs[p*n : (p+1)*n : (p+1)*n]
	}
	a.stage, a.read = a.planes[0], a.planes[1]
	return a
}

// Delay returns the pipeline depth shared by every link in the arena.
func (a *Arena) Delay() int { return a.delay }

// Len returns the number of links placed so far.
func (a *Arena) Len() int { return a.used }

// Cap returns the arena's fixed capacity in links.
func (a *Arena) Cap() int { return len(a.stage) / 2 }

// Registers returns the arena's register count: two per link of capacity.
func (a *Arena) Registers() int { return len(a.stage) }

// SetNamer installs the function that names the arena's links: namer(i) is
// the name of the i'th placed link. The arena stores no names; whoever
// places many links derives theirs from what it keeps anyway (netsim from
// its topology), and the text is built only when Name asks.
func (a *Arena) SetNamer(namer func(i int) string) { a.namer = namer }

// Place creates the next link with its A→B direction in register ab and
// its B→A direction in register ba. It panics when the arena is full or a
// register is out of range: capacities and placements are computed exactly
// at assembly time, so either is a compiler bug, not an operational
// condition. The arena records nothing of the link but the count: whether
// the placement as a whole claims every register exactly once is the
// assembler's audit (kernel.Builder.Compile), over the placements it keeps.
func (a *Arena) Place(ab, ba int) Link {
	if a.used == a.Cap() {
		panic(fmt.Sprintf("link arena: capacity %d exhausted", a.Cap()))
	}
	if n := a.Registers(); ab < 0 || ab >= n || ba < 0 || ba >= n || ab == ba {
		panic(fmt.Sprintf("link arena: link %d placed at registers %d, %d of %d", a.used, ab, ba, n))
	}
	l := Link{a: a, ab: int32(ab), ba: int32(ba), i: a.used}
	a.used++
	return l
}

// Clear empties registers [lo, hi) of the plane read this cycle, keeping
// their fault bytes, so that Commit can make it the next staging plane.
// It runs once their readers are done with them. Dead links clear like
// live ones (Kill suppresses delivery at the reading end, not
// propagation). On a healthy arena the clear is a plain memclr. Disjoint
// ranges touch disjoint registers, so a clear split into ranges, in any
// order or concurrently, clears each register once.
func (a *Arena) Clear(lo, hi int) {
	rs := a.read[lo:hi]
	if a.faulty == 0 {
		clear(rs)
		return
	}
	for i := range rs {
		rs[i] = reg{fault: rs[i].fault}
	}
}

// Commit implements clock.Latch: after Clear has run over every register,
// it advances the ring by one plane, so every link in the arena moves one
// cycle along its pipeline without a value being copied.
func (a *Arena) Commit(cycle uint64) {
	n := len(a.planes)
	a.head = (a.head + 1) % n
	a.stage, a.read = a.planes[a.head], a.planes[(a.head+1)%n]
}

// shift advances one register by one cycle without moving the head (the
// per-link Commit path): the value of age k, in plane head-k, moves to
// plane head-k-1 for k = delay-1 down to 0, and the staged plane clears.
func (a *Arena) shift(r int32) {
	n := len(a.planes)
	for age := a.delay; age > 0; age-- {
		a.planes[(a.head-age+n)%n][r] = a.planes[(a.head-age+1+n)%n][r]
	}
	a.stage[r] = reg{fault: a.stage[r].fault}
}

// stamp sets register r's fault byte to b in every plane.
func (a *Arena) stamp(r int32, b uint8) {
	if was := a.stage[r].fault; was != b {
		a.faulty += int(b) - int(was)
	}
	for _, p := range a.planes {
		p[r].fault = b
	}
}

// faultOf returns register r's fault state.
func (a *Arena) faultOf(r int32) fault {
	if a.faults == nil {
		return fault{}
	}
	return a.faults[r]
}

// setFault applies set to register r's fault state and stamps the
// register's fault byte to match: a reader takes the slow path while the
// wire is dead or words read from r are corrupted. The table is made with
// the first faulty register and dropped with the last.
//
//metrovet:alloc once per fault event on a healthy arena (a fault injector's Kill or SetCorruptor), never per cycle
func (a *Arena) setFault(r int32, set func(*fault)) {
	f := a.faultOf(r)
	set(&f)
	faulty := f.dead || f.corrupt != nil
	if a.faults == nil {
		if !faulty {
			return
		}
		a.faults = make([]fault, a.Registers())
	}
	a.faults[r] = f
	a.stamp(r, faultByte(faulty))
	if a.faulty == 0 {
		a.faults = nil
	}
}

func faultByte(faulty bool) uint8 {
	if faulty {
		return 1
	}
	return 0
}

// arriving is Recv for a non-Empty register, out of line so that Recv
// inlines into its callers' port loops.
func (e *End) arriving() word.Word {
	x := e.a.read[e.r]
	if x.fault != 0 {
		x = e.incoming()
	}
	return x.word()
}

// incoming is the dead-link / fault-hook receive path, kept out of line so
// Recv and RecvBCB inline. A nonzero fault byte means the arena has a
// fault table and the register's entry is set (setFault).
func (e *End) incoming() reg {
	f := e.a.faults[e.r]
	if f.dead {
		return reg{}
	}
	x := e.a.read[e.r]
	if f.corrupt != nil && x.kind != word.Empty {
		x.setWord(f.corrupt(x.word()))
	}
	return x
}
