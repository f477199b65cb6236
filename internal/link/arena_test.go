package link

import (
	"fmt"
	"math/rand"
	"testing"

	"metro/internal/word"
)

// TestArenaShuttleMatchesCommit holds the batched shuttle to per-link
// Commit: a population of arena-carved links, shuttled each cycle over
// some set of disjoint ranges covering [0, n), must deliver exactly what
// the same population of private links (New + Commit) delivers under the
// same stimulus — for the delay-1 pairwise fast path and the generic
// strided path alike, with Kill/Revive and a corruptor applied through
// the arena's view structs mid-run.
func TestArenaShuttleMatchesCommit(t *testing.T) {
	const n, cycles = 7, 40
	partitions := [][][2]int{
		{{0, n}},                         // one sweep, as workers = 0 runs it
		{{0, 3}, {3, n}},                 // two workers
		{{3, n}, {0, 3}},                 // order between parts is free
		{{0, 0}, {0, 1}, {1, 1}, {1, n}}, // empty parts: more workers than links
		{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, n}},
	}
	flip := func(w word.Word) word.Word { w.Payload ^= 1; return w }
	for delay := 1; delay <= 4; delay++ {
		for pi, parts := range partitions {
			t.Run(fmt.Sprintf("delay%d/partition%d", delay, pi), func(t *testing.T) {
				arena := NewArena(delay, n)
				private := make([]*Link, n)
				for i := range private {
					name := fmt.Sprintf("l%d", i)
					private[i] = New(name, delay)
					if v := arena.New(name); v != arena.At(i) || v.Name() != name || v.Delay() != delay {
						t.Fatalf("arena view %d: name %q delay %d", i, v.Name(), v.Delay())
					}
				}
				if arena.Len() != n || arena.Cap() != n || arena.Delay() != delay {
					t.Fatalf("arena Len %d Cap %d Delay %d", arena.Len(), arena.Cap(), arena.Delay())
				}
				rng := rand.New(rand.NewSource(int64(delay*100 + pi)))
				for cycle := 0; cycle < cycles; cycle++ {
					switch cycle {
					case 10:
						private[2].Kill()
						arena.At(2).Kill()
						private[4].SetCorruptor(flip, nil)
						arena.At(4).SetCorruptor(flip, nil)
					case 25:
						private[2].Revive()
						arena.At(2).Revive()
					}
					for i := 0; i < n; i++ {
						p, v := private[i], arena.At(i)
						if got, want := v.B().Recv(), p.B().Recv(); got != want {
							t.Fatalf("cycle %d link %d: B receives %v from the arena, %v from Commit", cycle, i, got, want)
						}
						if got, want := v.A().Recv(), p.A().Recv(); got != want {
							t.Fatalf("cycle %d link %d: A receives %v from the arena, %v from Commit", cycle, i, got, want)
						}
						if got, want := v.A().RecvBCB(), p.A().RecvBCB(); got != want {
							t.Fatalf("cycle %d link %d: A sees BCB %v from the arena, %v from Commit", cycle, i, got, want)
						}
						// Drive most cycles; an undriven end must shuttle Empty.
						if rng.Intn(4) > 0 {
							w := word.MakeData(rng.Uint32(), 8)
							p.A().Send(w)
							v.A().Send(w)
						}
						if rng.Intn(4) > 0 {
							w := word.MakeData(rng.Uint32(), 8)
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
			})
		}
	}
}
