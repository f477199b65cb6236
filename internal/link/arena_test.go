package link

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"metro/internal/word"
)

// TestLayoutPinRegisterIsEightBytes pins the register at 8 bytes, eight to
// a cache line: an 8x8 router's forward inputs are then exactly one line,
// and the commit phase copies 8 bytes per register per plane.
func TestLayoutPinRegisterIsEightBytes(t *testing.T) {
	if got := unsafe.Sizeof(reg{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(reg{}) = %d, want 8", got)
	}
}

// TestArenaShuttleMatchesCommit holds the per-plane batched shuttle to
// per-link Commit: a population of arena-resident links, shuttled each
// cycle over some set of disjoint register ranges covering [0, 2n), must
// deliver exactly what the same population of private links (New + Commit,
// each an arena of one) delivers under the same stimulus — words and BCBs,
// for delays 1 to 4, under the default placement (link i in registers 2i,
// 2i+1) and under a scattered one (a seeded permutation, so no link's two
// registers are adjacent and no range boundary falls between links), with
// Kill/Revive applied through the arena's views mid-run. The corruptor
// counts its calls: the fault byte must send exactly the reads to the slow
// path that a private link sends, so both populations' hooks are invoked
// the same number of times.
func TestArenaShuttleMatchesCommit(t *testing.T) {
	const n, cycles = 7, 40
	const regs = 2 * n
	partitions := [][][2]int{
		{{0, regs}},                         // one sweep, as workers = 0 runs it
		{{0, 6}, {6, regs}},                 // two workers
		{{6, regs}, {0, 6}},                 // order between parts is free
		{{0, 0}, {0, 1}, {1, 1}, {1, regs}}, // empty parts, and a part that splits a link
		{{0, 2}, {2, 4}, {4, 6}, {6, 8}, {8, 10}, {10, 12}, {12, regs}},
		{{0, 5}, {5, 9}, {9, regs}}, // odd boundaries
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
					arena := NewArena(delay, n)
					arena.SetNamer(func(i int) string { return fmt.Sprintf("l%d", i) })
					private := make([]*Link, n)
					for i := range private {
						name := fmt.Sprintf("l%d", i)
						private[i] = New(name, delay)
						var v *Link
						if perm == nil {
							v = arena.New()
						} else {
							v = arena.Place(perm[2*i], perm[2*i+1])
							if ab, ba := v.Registers(); ab != perm[2*i] || ba != perm[2*i+1] {
								t.Fatalf("link %d placed at %d, %d; asked for %d, %d", i, ab, ba, perm[2*i], perm[2*i+1])
							}
						}
						if v != arena.At(i) || v.Name() != name || v.Delay() != delay {
							t.Fatalf("arena view %d: name %q delay %d", i, v.Name(), v.Delay())
						}
						ab, ba := v.Registers()
						if a, r := v.A().Input(); a != arena || r != ba {
							t.Fatalf("link %d: A end reads register %d, want %d (B→A)", i, r, ba)
						}
						if a, r := v.B().Input(); a != arena || r != ab {
							t.Fatalf("link %d: B end reads register %d, want %d (A→B)", i, r, ab)
						}
					}
					if arena.Len() != n || arena.Cap() != n || arena.Delay() != delay || arena.Registers() != regs {
						t.Fatalf("arena Len %d Cap %d Delay %d Registers %d", arena.Len(), arena.Cap(), arena.Delay(), arena.Registers())
					}
					var privateCalls, arenaCalls int
					counting := func(calls *int) Corruptor {
						return func(w word.Word) word.Word { *calls++; w.Payload ^= 1; return w }
					}
					for cycle := 0; cycle < cycles; cycle++ {
						switch cycle {
						case 10:
							private[2].Kill()
							arena.At(2).Kill()
							private[4].SetCorruptor(counting(&privateCalls), nil)
							arena.At(4).SetCorruptor(counting(&arenaCalls), nil)
						case 25:
							private[2].Revive()
							arena.At(2).Revive()
						}
						for i := 0; i < n; i++ {
							p, v := private[i], arena.At(i)
							if got, want := v.B().Recv(), p.B().Recv(); got != want {
								t.Fatalf("cycle %d link %d: B receives %v from the arena, %v from Commit", cycle, i, got, want)
							}
							if got, want := v.B().In().Recv(), p.B().In().Recv(); got != want {
								t.Fatalf("cycle %d link %d: B's input view receives %v from the arena, %v from Commit", cycle, i, got, want)
							}
							if got, want := v.A().Recv(), p.A().Recv(); got != want {
								t.Fatalf("cycle %d link %d: A receives %v from the arena, %v from Commit", cycle, i, got, want)
							}
							if got, want := v.A().RecvBCB(), p.A().RecvBCB(); got != want {
								t.Fatalf("cycle %d link %d: A sees BCB %v from the arena, %v from Commit", cycle, i, got, want)
							}
							if got, want := v.B().RecvBCB(), p.B().RecvBCB(); got != want {
								t.Fatalf("cycle %d link %d: B sees BCB %v from the arena, %v from Commit", cycle, i, got, want)
							}
							// Drive most cycles; an undriven end must shuttle Empty.
							if rng.Intn(4) > 0 {
								w := word.MakeData(rng.Uint32(), mustWidth(8))
								p.A().Send(w)
								v.A().Send(w)
							}
							if rng.Intn(4) > 0 {
								w := word.MakeData(rng.Uint32(), mustWidth(8))
								bcb := rng.Intn(2) == 0
								p.B().Send(w)
								p.B().SendBCB(bcb)
								v.B().Send(w)
								v.B().SendBCB(bcb)
							}
						}
						for _, l := range private {
							l.Commit(uint64(cycle))
						}
						for _, part := range parts {
							arena.Shuttle(part[0], part[1])
						}
					}
					if arenaCalls != privateCalls || privateCalls == 0 {
						t.Fatalf("corruptor invoked %d times through the arena, %d times through Commit (want equal, nonzero)", arenaCalls, privateCalls)
					}
				})
			}
		}
	}
}

// TestFaultByteTracksKillAndCorruptors pins the fault byte's definition: set
// on a register exactly while its link is dead or its arriving direction has
// a corruptor, so a healthy direction of a half-corrupted link stays on the
// fast path. A link keeps fault state exactly while one byte is set.
func TestFaultByteTracksKillAndCorruptors(t *testing.T) {
	l := New("t", 2)
	id := func(w word.Word) word.Word { return w }
	check := func(when string, atA, atB uint8) {
		t.Helper()
		if a, b := l.A().fault, l.B().fault; a != atA || b != atB {
			t.Fatalf("%s: fault bytes A=%d B=%d, want A=%d B=%d", when, a, b, atA, atB)
		}
		if healthy := atA|atB == 0; healthy != (l.f == nil) {
			t.Fatalf("%s: fault state %v on a link whose fault bytes are A=%d B=%d", when, l.f, atA, atB)
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
