package link

import (
	"testing"

	"metro/internal/word"
)

// BenchmarkLinkSteadyCycle measures one clock cycle of a loaded link
// carrying a word and a BCB in each direction. The per-cycle path must not
// allocate; TestZeroAllocLinkSteadyCycle gates that.
func BenchmarkLinkSteadyCycle(b *testing.B) {
	l := New("l", 2)
	var cycle uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.A().Send(word.MakeData(uint32(i), 8))
		l.B().Send(word.Word{Kind: word.DataIdle})
		l.B().SendBCB(i%2 == 0)
		l.Commit(cycle)
		_ = l.B().Recv()
		_ = l.A().Recv()
		_ = l.A().RecvBCB()
		cycle++
	}
}

// TestZeroAllocLinkSteadyCycle asserts the per-cycle link path performs
// zero heap allocations, backing the static hot-path-alloc analyzer with a
// dynamic gate.
func TestZeroAllocLinkSteadyCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	if testing.Short() {
		t.Skip("benchmark-backed allocation gate; CI runs it in the dedicated -run ZeroAlloc step")
	}
	res := testing.Benchmark(BenchmarkLinkSteadyCycle)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("link steady cycle: %d allocs/op, want 0", a)
	}
}
