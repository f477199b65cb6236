package core_test

import (
	"testing"

	"metro/internal/word"
)

// BenchmarkRouterSteadyCycle measures one clock cycle of a router with an
// established connection streaming data: the hot path of every simulation.
// The per-cycle path must not allocate — all buffers are preallocated in
// NewRouter — and TestZeroAllocRouterSteadyCycle gates that.
func BenchmarkRouterSteadyCycle(b *testing.B) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 1)
	// Open a connection on forward port 0 toward direction 0 and prime the
	// pipeline with a few data words.
	h.src[0].Send(word.MakeRoute(0, 2))
	h.run()
	for i := 0; i < 8; i++ {
		h.src[0].Send(word.MakeData(uint32(i), mustWidth(cfg.Width)))
		h.run()
	}
	if h.r.ConnectionCount() != 1 {
		b.Fatal("connection did not open")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.src[0].Send(word.MakeData(uint32(i), mustWidth(cfg.Width)))
		h.run()
	}
}

// TestZeroAllocRouterSteadyCycle asserts the steady-state router cycle
// performs zero heap allocations per cycle, backing the static
// hot-path-alloc analyzer with a dynamic gate.
func TestZeroAllocRouterSteadyCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	if testing.Short() {
		t.Skip("benchmark-backed allocation gate; CI runs it in the dedicated -run ZeroAlloc step")
	}
	res := testing.Benchmark(BenchmarkRouterSteadyCycle)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("router steady cycle: %d allocs/op, want 0", a)
	}
}

// TestZeroAllocCheckInvariants: harnesses audit every router every cycle
// (metrofuzz's primary leg, so every metroserve job), so a passing audit
// must stay off the heap: the backward-port claim table lives on the
// stack.
func TestZeroAllocCheckInvariants(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 1)
	h.src[0].Send(word.MakeRoute(0, 2))
	h.src[2].Send(word.MakeRoute(1, 2))
	h.run()
	h.run()
	if h.r.ConnectionCount() != 2 {
		t.Fatalf("ConnectionCount = %d, want 2", h.r.ConnectionCount())
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := h.r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("CheckInvariants: %v allocs per call, want 0", a)
	}
}
