package nic

import (
	"testing"

	"metro/internal/link"
)

// BenchmarkEndpointSteadyCycle measures one clock cycle of an endpoint
// streaming a long message out an injection link, then idling in the
// listening state. Per-attempt setup (header build, payload packing)
// happens before the timer starts; every measured cycle must stay off the
// heap, and TestZeroAllocEndpointSteadyCycle gates that.
func BenchmarkEndpointSteadyCycle(b *testing.B) {
	cfg := Config{
		Width: 8,
		Header: HeaderSpec{Stages: []StageHeader{
			{DirBits: 2}, {DirBits: 2},
		}},
		AppendRouteDigits: func(dst []int, dest int) []int { return append(dst, dest&3, (dest>>2)&3) },
		ListenTimeout:     1 << 62, // the quiet listening tail must stay allocation-free
	}
	e, err := New(0, cfg)
	if err != nil {
		b.Fatal(err)
	}
	l := link.New("inj", 1)
	e.AttachInject(l.A())
	e.Offer(Message{Dest: 1, Payload: make([]byte, 4096)})
	var cycle uint64
	step := func() {
		e.Eval(cycle)
		l.Commit(cycle)
		cycle++
	}
	// First cycles run begin(): per-attempt stream construction allocates
	// by design and must not be counted against the steady state.
	for i := 0; i < 8; i++ {
		step()
	}
	if !e.Busy() {
		b.Fatal("sender did not start")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestZeroAllocEndpointSteadyCycle asserts the steady-state endpoint cycle
// performs zero heap allocations per cycle, backing the static
// hot-path-alloc analyzer with a dynamic gate.
func TestZeroAllocEndpointSteadyCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	if testing.Short() {
		t.Skip("benchmark-backed allocation gate; CI runs it in the dedicated -run ZeroAlloc step")
	}
	res := testing.Benchmark(BenchmarkEndpointSteadyCycle)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("endpoint steady cycle: %d allocs/op, want 0", a)
	}
}
