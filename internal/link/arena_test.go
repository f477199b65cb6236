package link

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"metro/internal/word"
)

// TestLayoutPinRegisterIsEightBytes pins the register at 8 bytes, eight to
// a cache line, with its fault byte inside: an 8x8 router's forward inputs
// are then exactly one line, and a read needs no other line to know whether
// it may take the fast path.
func TestLayoutPinRegisterIsEightBytes(t *testing.T) {
	if got := unsafe.Sizeof(reg{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(reg{}) = %d, want 8", got)
	}
	if off := unsafe.Offsetof(reg{}.fault); off >= 8 {
		t.Fatalf("reg's fault byte at offset %d, want inside the register", off)
	}
}

// wire is the plain shift-register model of one link direction: words[0]
// and bcbs[0] are what the sender drove this cycle, index delay what the
// reader sees, and every latch moves each value one register toward the
// reader. Its reads apply the link's fault semantics: a dead wire delivers
// Empty and a deasserted BCB, and a corruptor sees every non-Empty word a
// read observes, Recv's and RecvBCB's alike.
type wire struct {
	words   []word.Word
	bcbs    []bool
	dead    *bool
	corrupt Corruptor
}

func newWire(delay int, dead *bool) *wire {
	return &wire{words: make([]word.Word, delay+1), bcbs: make([]bool, delay+1), dead: dead}
}

func (w *wire) latch() {
	copy(w.words[1:], w.words)
	copy(w.bcbs[1:], w.bcbs)
	w.words[0], w.bcbs[0] = word.Word{}, false
}

func (w *wire) recv() word.Word {
	x := w.words[len(w.words)-1]
	if *w.dead || x.Kind == word.Empty {
		return word.Word{}
	}
	if w.corrupt != nil {
		x = w.corrupt(x)
	}
	return x
}

func (w *wire) recvBCB() bool {
	if *w.dead {
		return false
	}
	if x := w.words[len(w.words)-1]; w.corrupt != nil && x.Kind != word.Empty {
		w.corrupt(x)
	}
	return w.bcbs[len(w.bcbs)-1]
}

// heldEnds are one link's two ends as a unit holds them: copies taken when
// the link was placed.
type heldEnds struct{ a, b End }

// TestArenaShuttleMatchesCommit holds the arena's batched latch (its clear
// and head advance) to per-link Commit and to a plain shift-register model. Three populations of links run under the
// same stimulus as the model: arena-resident links latched as a built
// network latches them (Arena.Clear over some set of disjoint register
// ranges covering [0, 2n), then Arena.Commit), arena-resident links latched
// as netsim.Reference latches them (Link.Clear per link, then
// Arena.Commit), and private links (New + per-link Commit, each an arena of
// one whose head never moves). All must deliver exactly what the model
// delivers — words and BCBs, for delays 1 to 4, under the default placement
// (link i in registers 2i, 2i+1) and under a scattered one (a seeded
// permutation, so no link's two registers are adjacent and no range
// boundary falls between links), with Kill/Revive applied mid-run. The
// corruptor counts its calls: the fault byte must send exactly the reads to
// the slow path that the model's fault semantics name, so every
// population's hook is invoked as often as the model's. Every link's two
// ends are also copied at placement, as a unit holds them, and the copies
// are read each cycle and drive every other cycle: a copy taken before a
// Kill, Revive or corruptor must deliver and stage exactly what the link's
// own ends do. Mid-run, one link
// of each population is also latched on its own between cycles, as
// scan.LoopbackTest latches a built network's link: it must move as the
// model does, and no other link's reads may change.
func TestArenaShuttleMatchesCommit(t *testing.T) {
	const n, cycles = 7, 40
	const regs = 2 * n
	const loopback = 5 // the link latched on its own at cycle 30
	partitions := [][][2]int{
		{{0, regs}},                         // one sweep, as workers = 0 runs it
		{{0, 6}, {6, regs}},                 // two workers
		{{6, regs}, {0, 6}},                 // order between parts is free
		{{0, 0}, {0, 1}, {1, 1}, {1, regs}}, // empty parts, and a part that splits a link
		{{0, 2}, {2, 4}, {4, 6}, {6, 8}, {8, 10}, {10, 12}, {12, regs}},
		{{0, 5}, {5, 9}, {9, regs}}, // odd boundaries
	}
	type population struct {
		name  string
		links []Link
		held  []heldEnds // each link's ends, copied at placement
		latch func(cycle uint64)
		calls int // the counting corruptor's
	}
	for _, placement := range []string{"default", "scattered"} {
		for delay := 1; delay <= 4; delay++ {
			for pi, parts := range partitions {
				name := fmt.Sprintf("delay%d/partition%d", delay, pi)
				if placement == "scattered" {
					name = "scattered/" + name
				}
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(delay*100 + pi)))
					var perm []int // nil: the default placement
					if placement == "scattered" {
						perm = rng.Perm(regs)
					}
					// place fills an arena with the test's placement,
					// checking what each view reports.
					place := func() (*Arena, []Link, []heldEnds) {
						arena := NewArena(delay, n)
						arena.SetNamer(func(i int) string { return fmt.Sprintf("l%d", i) })
						links, held := make([]Link, n), make([]heldEnds, n)
						for i := range links {
							rab, rba := 2*i, 2*i+1 // the default placement
							if perm != nil {
								rab, rba = perm[2*i], perm[2*i+1]
							}
							v := arena.Place(rab, rba)
							ab, ba := v.Registers()
							if ab != rab || ba != rba {
								t.Fatalf("link %d placed at %d, %d; asked for %d, %d", i, ab, ba, rab, rba)
							}
							if v.Name() != fmt.Sprintf("l%d", i) || v.Delay() != delay {
								t.Fatalf("arena view %d: name %q delay %d", i, v.Name(), v.Delay())
							}
							h := heldEnds{a: v.A(), b: v.B()}
							if FromA(h.a, i) != v {
								t.Fatalf("link %d: its A end and placement index rebuild another link", i)
							}
							if a, r := h.a.Input(); a != arena || r != ba {
								t.Fatalf("link %d: A end reads register %d, want %d (B→A)", i, r, ba)
							}
							if a, r := h.b.Input(); a != arena || r != ab {
								t.Fatalf("link %d: B end reads register %d, want %d (A→B)", i, r, ab)
							}
							links[i], held[i] = v, h
						}
						if arena.Len() != n || arena.Cap() != n || arena.Delay() != delay || arena.Registers() != regs {
							t.Fatalf("arena Len %d Cap %d Delay %d Registers %d", arena.Len(), arena.Cap(), arena.Delay(), arena.Registers())
						}
						return arena, links, held
					}
					batched, batchedLinks, batchedHeld := place()
					byLink, byLinkLinks, byLinkHeld := place()
					private, privateHeld := make([]Link, n), make([]heldEnds, n)
					for i := range private {
						private[i] = *New(fmt.Sprintf("l%d", i), delay)
						privateHeld[i] = heldEnds{a: private[i].A(), b: private[i].B()}
					}
					pops := []*population{
						{name: "arena (partitioned Clear)", links: batchedLinks, held: batchedHeld, latch: func(cycle uint64) {
							for _, part := range parts {
								batched.Clear(part[0], part[1])
							}
							batched.Commit(cycle)
						}},
						{name: "arena (per-link Clear)", links: byLinkLinks, held: byLinkHeld, latch: func(cycle uint64) {
							for _, l := range byLinkLinks {
								l.Clear()
							}
							byLink.Commit(cycle)
						}},
						{name: "private links", links: private, held: privateHeld, latch: func(cycle uint64) {
							for _, l := range private {
								l.Commit(cycle)
							}
						}},
					}
					dead := make([]bool, n)
					wab, wba := make([]*wire, n), make([]*wire, n) // the model, A→B and B→A
					for i := range wab {
						wab[i], wba[i] = newWire(delay, &dead[i]), newWire(delay, &dead[i])
					}
					modelCalls := 0
					counting := func(calls *int) Corruptor {
						return func(w word.Word) word.Word { *calls++; w.Payload ^= 1; return w }
					}
					// reads returns what link i's ends deliver, failing on
					// any population that disagrees with the model. The
					// ends held since placement are read too: a copy must
					// see every word, BCB, Kill and corruptor the link's
					// own ends see.
					reads := func(cycle, i int) [9]any {
						t.Helper()
						want := [9]any{wab[i].recv(), wab[i].recv(), wba[i].recv(), wba[i].recvBCB(), wab[i].recvBCB(),
							wab[i].recv(), wba[i].recv(), wba[i].recvBCB(), wab[i].recvBCB()}
						for _, pop := range pops {
							l, h := pop.links[i], pop.held[i]
							a, b, b2 := l.A(), l.B(), l.B() // copies taken this cycle
							got := [9]any{b.Recv(), b2.Recv(), a.Recv(), a.RecvBCB(), b.RecvBCB(),
								h.b.Recv(), h.a.Recv(), h.a.RecvBCB(), h.b.RecvBCB()}
							if got != want {
								t.Fatalf("cycle %d link %d: the %s deliver (B, B's second copy, A, A's BCB, B's BCB, then the held B, A, A's BCB, B's BCB) = %v, the model %v", cycle, i, pop.name, got, want)
							}
						}
						return want
					}
					// send drives link i's end at A or B in every population
					// and the model, through the link's own ends or, with
					// viaHeld, through the ends held since placement.
					send := func(i int, atA, viaHeld bool, w word.Word, bcb bool) {
						for _, pop := range pops {
							a, b := pop.links[i].A(), pop.links[i].B()
							if viaHeld {
								a, b = pop.held[i].a, pop.held[i].b
							}
							if atA {
								a.Send(w)
							} else {
								b.Send(w)
								b.SendBCB(bcb)
							}
						}
						if atA {
							wab[i].words[0] = w
						} else {
							wba[i].words[0], wba[i].bcbs[0] = w, bcb
						}
					}
					for cycle := 0; cycle < cycles; cycle++ {
						switch cycle {
						case 10:
							dead[2] = true
							wab[4].corrupt = counting(&modelCalls)
							for _, pop := range pops {
								pop.links[2].Kill()
								pop.links[4].SetCorruptor(counting(&pop.calls), nil)
							}
						case 25:
							dead[2] = false
							for _, pop := range pops {
								pop.links[2].Revive()
							}
						case 30:
							// Between cycles, as LoopbackTest does on a built
							// network: drive one link's A end and latch that
							// link alone until the word arrives.
							var before [n][9]any
							for i := 0; i < n; i++ {
								if i != loopback {
									before[i] = reads(cycle, i)
								}
							}
							w := word.MakeData(rng.Uint32(), mustWidth(8))
							send(loopback, true, false, w, false)
							for k := 0; k < delay; k++ {
								for _, pop := range pops {
									pop.links[loopback].Commit(uint64(cycle))
								}
								wab[loopback].latch()
								wba[loopback].latch()
							}
							if got := reads(cycle, loopback)[0]; got != w {
								t.Fatalf("link %d latched on its own: B receives %v, want %v", loopback, got, w)
							}
							for i := 0; i < n; i++ {
								if i != loopback && reads(cycle, i) != before[i] {
									t.Fatalf("cycle %d: latching link %d on its own changed link %d's reads", cycle, loopback, i)
								}
							}
						}
						for i := 0; i < n; i++ {
							reads(cycle, i)
							// Drive most cycles; an undriven end must latch Empty.
							viaHeld := (cycle+i)%2 == 1
							if rng.Intn(4) > 0 {
								send(i, true, viaHeld, word.MakeData(rng.Uint32(), mustWidth(8)), false)
							}
							if rng.Intn(4) > 0 {
								w := word.MakeData(rng.Uint32(), mustWidth(8))
								send(i, false, viaHeld, w, rng.Intn(2) == 0)
							}
						}
						for _, pop := range pops {
							pop.latch(uint64(cycle))
						}
						for i := range wab {
							wab[i].latch()
							wba[i].latch()
						}
					}
					for _, pop := range pops {
						if pop.calls != modelCalls || modelCalls == 0 {
							t.Fatalf("corruptor invoked %d times through the %s, %d by the model (want equal, nonzero)", pop.calls, pop.name, modelCalls)
						}
					}
				})
			}
		}
	}
}

// TestFaultByteTracksKillAndCorruptors pins the fault byte's definition: set
// on a register, in every plane, exactly while its link is dead or its
// arriving direction has a corruptor, so a healthy direction of a
// half-corrupted link stays on the fast path. A register's entry in the
// arena's fault table is set exactly while its byte is, and the table is
// nil while every byte is clear.
func TestFaultByteTracksKillAndCorruptors(t *testing.T) {
	l := New("t", 2)
	id := func(w word.Word) word.Word { return w }
	check := func(when string, atA, atB uint8) {
		t.Helper()
		for p, plane := range l.a.planes {
			if a, b := plane[l.ba].fault, plane[l.ab].fault; a != atA || b != atB {
				t.Fatalf("%s: plane %d's fault bytes A=%d B=%d, want A=%d B=%d", when, p, a, b, atA, atB)
			}
		}
		if got, want := l.a.faulty, int(atA)+int(atB); got != want {
			t.Fatalf("%s: the arena counts %d faulty registers, want %d", when, got, want)
		}
		if a, b := l.A(), l.B(); a.Dead() != l.Dead() || b.Dead() != l.Dead() {
			t.Fatalf("%s: ends report dead A=%v B=%v on a link that reports %v", when, a.Dead(), b.Dead(), l.Dead())
		}
		set := func(f fault) bool { return f.dead || f.corrupt != nil }
		inA, inB := set(l.a.faultOf(l.ba)), set(l.a.faultOf(l.ab))
		if inA != (atA != 0) || inB != (atB != 0) || (l.a.faults == nil) != (atA|atB == 0) {
			t.Fatalf("%s: fault table %v on a link whose fault bytes are A=%d B=%d", when, l.a.faults, atA, atB)
		}
	}
	check("fresh", 0, 0)
	l.SetCorruptor(id, nil) // A→B exits at B
	check("A→B corrupted", 0, 1)
	l.Kill()
	check("dead", 1, 1)
	l.SetCorruptor(nil, nil)
	check("dead, hooks cleared", 1, 1)
	l.Revive()
	check("revived", 0, 0)
	l.SetCorruptor(nil, id)
	check("B→A corrupted", 1, 0)
}

// TestPlaceRejectsBadRegisters: a placement outside the arena, or one that
// gives a link the same register twice, is an assembly bug and panics at the
// call; overlap between links is the kernel audit's to find.
func TestPlaceRejectsBadRegisters(t *testing.T) {
	for _, regs := range [][2]int{{-1, 0}, {0, 4}, {4, 1}, {2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Place(%d, %d) in a 4-register arena did not panic", regs[0], regs[1])
				}
			}()
			NewArena(1, 2).Place(regs[0], regs[1])
		}()
	}
}
