package nic

import (
	"bytes"
	"runtime"
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

// TestZeroAllocSettleCarvesDeliveries settles many small deliveries and
// counts the allocations: Settle carves each payload from a chunk its
// Shape owns, so it allocates once per chunk, not once per delivery (an
// UnpackBytes per delivery made one or more each). Every payload must
// still be the callee's alone, its capacity capped at its length, and
// unpack to the bytes that were packed.
func TestZeroAllocSettleCarvesDeliveries(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const deliveries, size = 1024, 24
	var got [][]byte
	cfg := Config{
		Width:             8,
		AppendRouteDigits: func(dst []int, dest int) []int { return dst },
		OnDeliver:         func(_ int, p []byte, _ bool) { got = append(got, p) },
	}
	sh, err := NewShape(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := sh.NewEndpoint(0)
	e.AttachDeliver(link.New("d", 1).B())
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(3*i + 1)
	}
	r := &e.receivers[0]
	r.words = AppendPackBytes(nil, payload, sh.logical)
	r.data = len(r.words)
	got = make([][]byte, 0, deliveries)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < deliveries; i++ {
		r.delivered, sh.unsettled[0] = true, true
		e.Settle()
	}
	runtime.ReadMemStats(&after)
	chunks := (deliveries + payloadChunk/size - 1) / (payloadChunk / size)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d deliveries of %d B: %d allocations, %d chunks", deliveries, size, allocs, chunks)
	if allocs > uint64(chunks) {
		t.Errorf("%d deliveries of %d B made %d allocations, want one per %d B chunk (%d)", deliveries, size, allocs, payloadChunk, chunks)
	}
	if len(got) != deliveries {
		t.Fatalf("OnDeliver saw %d deliveries, want %d", len(got), deliveries)
	}
	for i, p := range got {
		if !bytes.Equal(p, payload) || cap(p) != len(p) {
			t.Fatalf("delivery %d: %x (cap %d), want %x with its capacity capped", i, p, cap(p), payload)
		}
	}
	// The callee owns its bytes: writing one payload leaves the next alone.
	got[0] = append(got[0], 0xff)
	got[1][0] ^= 0xff
	if !bytes.Equal(got[2], payload) {
		t.Fatalf("writing deliveries 0 and 1 changed delivery 2: %x", got[2])
	}
}
