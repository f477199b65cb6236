package netsim

import (
	"math/rand"
	"runtime"
	"testing"

	"metro/internal/nic"
	"metro/internal/telemetry"
	"metro/internal/topo"
)

// BenchmarkKernelCongestedSteadyStep measures one whole-network cycle
// of a congested Figure 3 network on the compiled kernel; the Observed
// variant runs the identical closed loop with the full observability
// stack attached — engine metrics gauges, the flight recorder, and the
// telemetry→metrics bridge as its streaming tap — proving the
// operational layer adds zero allocations to the hot loop.
//
// Both share benchSteadyKernel, a closed loop:
// every completed message is replaced by a fresh one, so the in-flight
// population — and with it every recycled buffer (sender scratch, parser
// buffers, the pending freelist, the result and event accumulators) —
// holds at its steady-state size. After warmup, a measured cycle must stay
// off the heap entirely; TestZeroAllocKernelCongestedStep gates that.
func BenchmarkKernelCongestedSteadyStep(b *testing.B) {
	benchSteadyKernel(b, false)
}

// BenchmarkKernelCongestedSteadyStepObserved is the alloc half of the
// BENCH_5 acceptance bar: the congested kernel loop with metrics,
// recorder, and bridge all live.
func BenchmarkKernelCongestedSteadyStepObserved(b *testing.B) {
	benchSteadyKernel(b, true)
}

func benchSteadyKernel(b *testing.B, observed bool) {
	completed := 0
	p := Params{
		Spec: topo.Figure3(), Width: 8, DataPipe: 2, LinkDelay: 1,
		Seed: 71, RetryLimit: 600, ListenTimeout: 200,
		OnResult: func(nic.Result) { completed++ },
	}
	bridge := &telemetry.MetricsSink{}
	if observed {
		p.EngineMetrics = benchEngineMetrics()
		rec := telemetry.New(telemetry.Options{})
		rec.SetSink(bridge.Sink)
		p.Recorder = rec
	}
	n, err := Build(p)
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	rng := rand.New(rand.NewSource(17))
	eps := n.Params.Spec.Endpoints
	send := func() {
		src, dest := rng.Intn(eps), rng.Intn(eps)
		if dest == src {
			dest = (dest + 1) % eps
		}
		n.Send(src, dest, benchPayload[:])
	}
	// Warm up into a congested steady state: a deep backlog keeps every
	// sender busy, and a few thousand cycles let every scratch buffer grow
	// to its steady capacity.
	for i := 0; i < 64; i++ {
		send()
	}
	for i := 0; i < 4000; i++ {
		n.Engine.Step()
		for ; completed > 0; completed-- {
			send()
		}
	}
	n.ResetResults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Engine.Step()
		// Closed loop: replace exactly what completed, drain the result
		// accumulator the way a measuring driver would.
		for ; completed > 0; completed-- {
			send()
		}
		n.ResetResults()
	}
	b.StopTimer()
	if observed && bridge.Stats().Offered == 0 {
		b.Fatal("observed run: the telemetry bridge tallied no offered messages")
	}
}

// TestZeroAllocKernelCongestedStep asserts the warmed congested kernel
// step performs zero heap allocations per cycle — the whole-network
// dynamic gate behind the per-package steady-cycle gates (link, core,
// nic), and the alloc half of the BENCH_4 acceptance bar.
func TestZeroAllocKernelCongestedStep(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	if testing.Short() {
		t.Skip("benchmark-backed allocation gate; CI runs it in the dedicated -run ZeroAlloc step")
	}
	res := testing.Benchmark(BenchmarkKernelCongestedSteadyStep)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("congested kernel step: %d allocs/op (%d B/op), want 0", a, res.AllocedBytesPerOp())
	}
}

// TestZeroAllocKernelCongestedStepObserved asserts the same bar with
// the full operational-metrics stack live: engine gauges sampling on
// the cycle grid, the flight recorder draining every cycle, and the
// telemetry→metrics bridge tapping the drain. Observability that
// allocates on the hot path would show up here as a regression.
func TestZeroAllocKernelCongestedStepObserved(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	if testing.Short() {
		t.Skip("benchmark-backed allocation gate; CI runs it in the dedicated -run ZeroAlloc step")
	}
	res := testing.Benchmark(BenchmarkKernelCongestedSteadyStepObserved)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("observed congested kernel step: %d allocs/op (%d B/op), want 0", a, res.AllocedBytesPerOp())
	}
}

// TestZeroAllocBuildPerPortClones pins netsim.Build's allocation count and
// bytes on the Figure 3 network. Build is not allocation-free, but nothing
// it allocates may be per router port or per link: writing each port's
// turn delay through Settings + ApplySettings cost two deep clones, twelve
// allocations, per port (9,216 of this network's 15,278). It was 6,062
// once that was gone, 2,528 once names were appended with strconv and the
// adjacency tables carved from shared arrays, 1,698 once the routers of a
// stage shared one Shape (turn delays included), links stored no names and
// the network kept no lane tables, 1,316 once the endpoints shared one
// nic.Shape, held their senders and receivers by value and took lane ends
// carved from one array, 1,308 once a network held its router columns'
// lanes and no cascade groups, 1,278 (about 293 KB) once the kernel
// audited the link ends its units hold instead of adjacency tables Build
// kept beside them (about 351 KB), and 1,262 (about 256 KB) before the
// topology stored one int32 per inter-stage wire instead of a PortRef
// slice per router and per endpoint, and 966 (about 219.5 KB) before an
// endpoint shed its private free list of message records, and 966 (about
// 218.5 KB) before endpoints, senders and receivers shed the scratch of
// the messages they build, parse and receive, which now rides the message
// records, and the network its per-endpoint callback buffers, and 969
// (about 192.3 KB) before the arenas shed their per-register table of link
// ends, which units now hold by value, and 970 (about 180.1 KB) before
// each router held its LFSR by value and a cascade's lanes stopped
// sharing one buffered stream, and 906 (about 175.8 KB) before the arenas
// shed their table of links and per-register owner entry (32 B a link;
// the builder now holds the placements its audit reads, 24 B a link,
// until Build returns). It is 905, and about 156.4 KB, 15,360 B less
// than the 171.7 KB it was while every router kept a buffer set per
// forward port and per closer slot, Inputs+Outputs sets, where it now
// keeps one per backward port (320 B less an 8x8 router at dp 2, 160 B a
// 4x4). The allocation budget is 905 plus 10%, the byte budget 156.4 KB
// plus 10%,
// so a per-router settings copy (two allocations a router), a stored
// link name (one a link), a per-endpoint closure, a per-router wiring
// slice or a transient per-link table fails here.
func TestZeroAllocBuildPerPortClones(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const budget, bytesBudget = 996, 172_100
	p := Params{Spec: topo.Figure3(), Width: 8, DataPipe: 2, LinkDelay: 1, Seed: 71}
	ports := 0
	n, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	for s := range n.Routers {
		for j := range n.Routers[s] {
			r := n.RouterAt(s, j)
			ports += r.Config().Inputs + r.Config().Outputs
			for port, d := range r.Settings().TurnDelay {
				if d != p.LinkDelay {
					t.Fatalf("%s: TurnDelay[%d] = %d, want the link delay %d", r.Name(), port, d, p.LinkDelay)
				}
			}
		}
	}
	// As testing.AllocsPerRun, on one P, and reading the bytes as well.
	const runs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Build(p); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Build(Figure 3): %.0f allocations, %.1f per router port (%d ports), %d B", allocs, allocs/float64(ports), ports, bytes)
	if allocs > budget {
		t.Fatalf("Build(Figure 3): %.0f allocations (%.1f per router port), budget %d: is something cloning per port again?", allocs, allocs/float64(ports), budget)
	}
	if bytes > bytesBudget {
		t.Fatalf("Build(Figure 3): %d B allocated, budget %d: has a per-link table grown back?", bytes, bytesBudget)
	}
}

// TestScaleFootprintBytesPerEndpoint pins the live heap a built network
// costs per endpoint, measured the way `metrobench -scale` and the
// benchmark's `netsim.bytes_per_endpoint` measure it (HeapAlloc across
// Build, collected on both sides), on the 1Ki-endpoint radix-4 network:
// 1,536 routers and 12,288 links. It was 11,850 B before the routers'
// port state was packed (docs/KERNEL.md, "Memory layout and the per-cycle
// byte budget"), about 8,400 B before routers shared their stage's Shape
// and links shed names and padding, about 6,320 B before endpoints shared
// their network's nic.Shape and the kernel dropped its adjacency after the
// audit, about 5,500 B before a network held each router column as a
// slice of lanes, about 5,510 B before link ends shed their register
// pointers and fault byte (12 B less per register, 24 registers per
// endpoint), about 5,220 B before a connection's injected and displaced
// words shared one queue and closers and links shed their padding and
// placement index, about 4,565 B before the topology stored one int32 per
// inter-stage wire in place of a 32-byte PortRef in a slice per router
// and per endpoint, about 4,140 B (4,155 on the 2-vCPU development box)
// before an endpoint shed its private free list of message records (16 B),
// about 4,120 B (4,103-4,139) before endpoints, senders and receivers shed
// the slice headers of the scratch that now rides the message records and
// netsim its per-endpoint callback buffers, about 3,826 B (3,789-3,842)
// before the arenas shed their 16 B per register table of link ends for
// ends held by value (8 B more per backward port and endpoint lane), about
// 3,535 B (3,517-3,565) before each router held its LFSR by value in a
// struct a cache line smaller (about 100 B an endpoint at 1.5 routers an
// endpoint), about 3,440 B (3,424-3,461) before the arenas shed their
// table of links and per-register owner entry (32 B a link, 12 links an
// endpoint), about 3,060 B (3,040-3,077) before a router kept a buffer
// set per backward port instead of one per forward port and closer slot
// (320 B less each 8x8 router, 160 B each 4x4: 400 B an endpoint), and
// is about 2,660 B now (2,640-2,681 over runs); the ceiling is 10% over
// 2,681 and fails long before a
// per-router copy, a per-link field, a per-wire PortRef or a per-endpoint
// Config copy regrows. What a network keeps once it runs is
// TestRunningFootprintTracksInFlight's.
func TestScaleFootprintBytesPerEndpoint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are inflated under the race detector")
	}
	const endpoints, ceiling = 1024, 2950
	spec, err := topo.Scale(endpoints, 4)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n, err := Build(Params{Spec: spec, Width: 8, DataPipe: 2, LinkDelay: 1, Seed: 71, RetryLimit: 600, ListenTimeout: 200})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := int64(after.HeapAlloc-before.HeapAlloc) / endpoints
	t.Logf("Build(Scale(%d, 4)): %d B per endpoint", endpoints, per)
	if per > ceiling {
		t.Fatalf("Build(Scale(%d, 4)) keeps %d B per endpoint live, ceiling %d", endpoints, per, ceiling)
	}
	n.Close() // also keeps n live until the heap is read
}
