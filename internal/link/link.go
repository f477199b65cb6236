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
// Links implement clock.Component: ends stage values during Eval via Send /
// SendBCB, and the pipelines shift at Commit, so values become visible to
// the far end after the configured delay.
//
// Fault injection hooks (Corruptor functions and Kill) model broken or
// noisy wires for the fault-tolerance experiments.
package link

import (
	"fmt"

	"metro/internal/word"
)

// Corruptor transforms words as they exit a link, modeling a faulty wire.
// A nil Corruptor leaves the link healthy.
type Corruptor func(word.Word) word.Word

// slot is the content of one pipeline register: a word plus the BCB.
type slot struct {
	w   word.Word
	bcb bool
}

// pipe is one direction of a link: the input slot staged during the current
// cycle followed by delay pipeline registers, stored contiguously. regs[0]
// is the staged slot and regs[len-1] is the output register, so a commit is
// a single forward copy — the same operation whether the backing array is a
// private allocation (New) or a region of a shared Arena (Arena.New).
type pipe struct {
	regs []slot
}

func newPipe(delay int) pipe { return pipe{regs: make([]slot, delay+1)} }

// out reads the register at the far end of the pipeline.
func (p *pipe) out() slot { return p.regs[len(p.regs)-1] }

// shift advances the pipeline by one cycle: every slot moves one place
// toward the output and the staged slot clears to Empty.
func (p *pipe) shift() {
	copy(p.regs[1:], p.regs[:len(p.regs)-1])
	p.regs[0] = slot{}
}

// Link is a bidirectional, pipelined chip-to-chip connection.
type Link struct {
	name      string
	ab        pipe // words and BCB traveling A→B
	ba        pipe // words and BCB traveling B→A
	endA      End  // embedded so an arena of links keeps ends contiguous
	endB      End
	corruptAB Corruptor
	corruptBA Corruptor
	dead      bool
}

// initEnds wires the embedded ends' cached register addresses; it must run
// after the pipes are in place and before A or B is called.
func (l *Link) initEnds() {
	l.endA = End{l: l, atA: true, in: l.ba.outReg(), stage: &l.ab.regs[0], corrupt: &l.corruptBA}
	l.endB = End{l: l, atA: false, in: l.ab.outReg(), stage: &l.ba.regs[0], corrupt: &l.corruptAB}
}

// New returns a link whose wires contribute delay pipeline stages in each
// direction (the paper's vtd; delay must be >= 1).
func New(name string, delay int) *Link {
	if delay < 1 {
		panic(fmt.Sprintf("link %s: delay must be >= 1, got %d", name, delay))
	}
	l := &Link{name: name, ab: newPipe(delay), ba: newPipe(delay)}
	l.initEnds()
	return l
}

// Name returns the link's identifier (used in traces and fault plans).
func (l *Link) Name() string { return l.name }

// Delay returns the pipeline depth per direction.
func (l *Link) Delay() int { return len(l.ab.regs) - 1 }

// Eval implements clock.Component; links have no evaluation work.
func (l *Link) Eval(cycle uint64) {}

// Commit shifts both pipelines, latching the values staged during Eval.
func (l *Link) Commit(cycle uint64) {
	l.ab.shift()
	l.ba.shift()
}

// SetCorruptor installs fault hooks applied to words exiting the link in
// each direction. Either may be nil.
func (l *Link) SetCorruptor(ab, ba Corruptor) {
	l.corruptAB, l.corruptBA = ab, ba
}

// Kill marks the link dead: both directions deliver only Empty words and a
// deasserted BCB, as a severed wire would.
func (l *Link) Kill() { l.dead = true }

// Revive clears a previous Kill. In-flight contents were lost.
func (l *Link) Revive() { l.dead = false }

// Dead reports whether the link has been killed.
func (l *Link) Dead() bool { return l.dead }

// A returns the upstream end of the link.
func (l *Link) A() *End { return &l.endA }

// B returns the downstream end of the link.
func (l *Link) B() *End { return &l.endB }

// outReg returns the address of the pipeline's output register. Register
// storage is fixed for the life of a link (shifts move values, never the
// backing array), so ends cache these addresses at wiring time and the
// per-cycle read path is a single load.
func (p *pipe) outReg() *slot { return &p.regs[len(p.regs)-1] }

// End is one side's interface to a link. All methods follow the two-phase
// clock discipline: Send/SendBCB stage values for the current cycle, while
// Recv/RecvBCB observe values committed at the end of the previous cycle.
type End struct {
	l       *Link
	atA     bool
	in      *slot      // far pipe's output register (fixed address)
	stage   *slot      // near pipe's staged slot (fixed address)
	corrupt *Corruptor // the arriving direction's fault hook (fixed field address)
}

// Link returns the underlying link.
func (e *End) Link() *Link { return e.l }

// Send stages the word this end drives onto the link this cycle. If Send is
// not called during a cycle the end drives Empty.
func (e *End) Send(w word.Word) { e.stage.w = w }

// SendBCB stages the backward control bit this end drives this cycle.
// The BCB is only meaningful traveling B→A (toward the source), but both
// directions carry it for symmetry.
func (e *End) SendBCB(b bool) { e.stage.bcb = b }

// Recv returns the word arriving at this end this cycle.
func (e *End) Recv() word.Word {
	if e.l.dead || *e.corrupt != nil {
		return e.recvSlow().w
	}
	return e.in.w
}

// RecvBCB returns the backward control bit arriving at this end this cycle.
func (e *End) RecvBCB() bool {
	if e.l.dead || *e.corrupt != nil {
		// The fault hook still observes the word (stateful corruptors count
		// on seeing every exiting word exactly as incoming delivers it).
		return e.recvSlow().bcb
	}
	return e.in.bcb
}

// recvSlow is the dead-link / fault-hook receive path, kept out of the
// per-cycle fast path so Recv and RecvBCB inline.
func (e *End) recvSlow() slot { return e.incoming() }

// Arena is a flat struct-of-arrays backing store for the pipeline registers
// of many same-delay links. Each link occupies 2*(delay+1) contiguous slots
// — the A→B pipe (staged slot then delay registers) followed by the B→A
// pipe — so committing every link in the arena is a strided sweep over one
// slice instead of a virtual Commit call per Link.
//
// Links carved from an arena behave exactly like ones from New: the Link
// struct is a view whose pipes alias arena memory, so Kill, corruptors, and
// telemetry keep working. The one discipline change is that the owner calls
// Arena.Shuttle for the commit phase and must not also register the links
// with the clock engine (double-shifting would advance a wire two cycles).
type Arena struct {
	delay  int
	stride int // slots per pipe: staged + delay registers
	slots  []slot
	links  []Link // backing array; Len() of these are initialized
	used   int
}

// NewArena returns an arena with room for capacity links of the given
// pipeline delay (delay must be >= 1, matching New).
func NewArena(delay, capacity int) *Arena {
	if delay < 1 {
		panic(fmt.Sprintf("link arena: delay must be >= 1, got %d", delay))
	}
	stride := delay + 1
	return &Arena{
		delay:  delay,
		stride: stride,
		slots:  make([]slot, 2*stride*capacity),
		links:  make([]Link, capacity),
	}
}

// Delay returns the pipeline depth shared by every link in the arena.
func (a *Arena) Delay() int { return a.delay }

// Len returns the number of links carved so far.
func (a *Arena) Len() int { return a.used }

// Cap returns the arena's fixed capacity in links.
func (a *Arena) Cap() int { return len(a.links) }

// New carves the next link out of the arena. It panics when the arena is
// full: capacities are computed exactly at assembly time, so running out
// is a compiler bug, not an operational condition.
func (a *Arena) New(name string) *Link {
	if a.used == len(a.links) {
		panic(fmt.Sprintf("link arena: capacity %d exhausted at %s", len(a.links), name))
	}
	base := 2 * a.stride * a.used
	l := &a.links[a.used]
	a.used++
	*l = Link{
		name: name,
		ab:   pipe{regs: a.slots[base : base+a.stride : base+a.stride]},
		ba:   pipe{regs: a.slots[base+a.stride : base+2*a.stride : base+2*a.stride]},
	}
	l.initEnds()
	return l
}

// At returns the i'th carved link (creation order).
func (a *Arena) At(i int) *Link { return &a.links[i] }

// Shuttle advances the pipelines of links [lo, hi) by one cycle, exactly as
// if each link's Commit had run. Dead links shuttle like live ones (Kill
// suppresses delivery at the reading end, not propagation), so the sweep is
// branch-free. Disjoint ranges touch disjoint slot regions, which is what
// makes the commit phase safe to partition across workers.
func (a *Arena) Shuttle(lo, hi int) {
	stride := a.stride
	if stride == 2 {
		// Delay-1 links (the overwhelmingly common configuration): each
		// pipe is just staged slot then output register, so the shuttle is
		// a pairwise move without the copy-call overhead. One iteration
		// handles a whole link — both pipes — to halve the loop overhead.
		s := a.slots[4*lo : 4*hi]
		for len(s) >= 4 {
			s[1] = s[0]
			s[0] = slot{}
			s[3] = s[2]
			s[2] = slot{}
			s = s[4:]
		}
		return
	}
	for p := 2 * lo; p < 2*hi; p++ {
		base := p * stride
		regs := a.slots[base : base+stride]
		copy(regs[1:], regs[:stride-1])
		regs[0] = slot{}
	}
}

func (e *End) incoming() slot {
	if e.l.dead {
		return slot{}
	}
	var s slot
	var c Corruptor
	if e.atA {
		s = e.l.ba.out()
		c = e.l.corruptBA
	} else {
		s = e.l.ab.out()
		c = e.l.corruptAB
	}
	if c != nil && !s.w.IsEmpty() {
		s.w = c(s.w)
	}
	return s
}
