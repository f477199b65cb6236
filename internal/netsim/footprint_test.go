package netsim

import (
	"math/rand"
	"runtime"
	"testing"

	"metro/internal/nic"
	"metro/internal/topo"
)

// TestRunningFootprintTracksInFlight pins what a running network keeps,
// where TestScaleFootprintBytesPerEndpoint pins what a built one does. It
// steps the 1Ki-endpoint radix-4 network under `metrobench -scale`'s closed
// loop (endpoints/8 messages outstanding, every completion replaced at
// once) for 8,000 cycles and holds two things:
//
//   - The message records the network keeps, those outstanding plus those
//     idle in its pool or parked on an endpoint, stay within 10% of the
//     peak outstanding count at every cycle, and the idle ones do not grow
//     from cycle 2,000 to cycle 8,000. While each endpoint recycled its own
//     records they added up to every endpoint's own peak: 1,687 at cycle
//     256 and 7,867 at cycle 10,000 on the 4Ki network with 512
//     outstanding.
//   - The live heap per endpoint after the run is at most its measured
//     value plus 10%. It is about 2,740 B (2,737-2,742), 2,660 of them
//     the built network's; the rest is the message records, each with
//     its stream, route digits and reply parse. It was about 3,140 B
//     (3,137-3,143) before a router kept one buffer set per backward
//     port instead of one per forward port and closer slot, about
//     3,519 B before the
//     arenas shed their table of links and per-register owner entry
//     (384 B an endpoint), about 3,620 B (3,612-3,628)
//     before each router held its LFSR by value, about 3,890 B before
//     the arenas shed their per-register table of link ends, and about
//     4,700 B while every endpoint kept a callback buffer in netsim,
//     route-digit and checksum scratch and a queue array, and every sender
//     a reply parser and every receiver a payload and reply buffer, each at
//     its own peak; with a free list per endpoint it was about 5,300 B,
//     with 1,930 idle records at the end.
func TestRunningFootprintTracksInFlight(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are inflated under the race detector")
	}
	const endpoints, cycles, ceiling = 1024, 8000, 3020
	spec, err := topo.Scale(endpoints, 4)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	completed := 0
	n, err := Build(Params{
		Spec: spec, Width: 8, DataPipe: 2, LinkDelay: 1,
		Seed: 71, RetryLimit: 600, ListenTimeout: 200,
		OnResult: func(nic.Result) { completed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	rng := rand.New(rand.NewSource(17))
	payload := []byte{0xa5, 0x3c, 0x96, 0x0f}
	outstanding, peak := 0, 0
	send := func() {
		src, dest := rng.Intn(endpoints), rng.Intn(endpoints)
		if dest == src {
			dest = (dest + 1) % endpoints
		}
		n.Send(src, dest, payload)
		outstanding++
		peak = max(peak, outstanding)
	}
	held := func() int {
		h := n.endpoints.Pooled()
		for _, ep := range n.Endpoints {
			h += ep.Parked()
		}
		return h
	}
	for i := 0; i < endpoints/8; i++ {
		send()
	}
	heldAt2000 := 0
	for cycle := 1; cycle <= cycles; cycle++ {
		n.Engine.Step()
		for ; completed > 0; completed-- {
			outstanding--
			send()
		}
		h := held()
		if kept := outstanding + h; 10*kept > 11*peak {
			t.Fatalf("cycle %d: %d records kept (%d outstanding, %d idle), over the peak outstanding %d plus 10%%", cycle, kept, outstanding, h, peak)
		}
		if cycle == 2000 {
			heldAt2000 = h
		}
		if cycle == cycles && h > heldAt2000 {
			t.Errorf("idle records grew from %d at cycle 2000 to %d at cycle %d", heldAt2000, h, cycles)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := int64(after.HeapAlloc-before.HeapAlloc) / endpoints
	t.Logf("Scale(%d, 4) after %d closed-loop cycles: peak %d outstanding, %d idle records, %d B live per endpoint", endpoints, cycles, peak, held(), per)
	if per > ceiling {
		t.Fatalf("Scale(%d, 4) keeps %d B per endpoint live after %d cycles, ceiling %d", endpoints, per, cycles, ceiling)
	}
}
