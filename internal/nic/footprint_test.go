package nic

import (
	"runtime"
	"testing"
	"unsafe"

	"metro/internal/link"
)

// TestEndpointFootprint pins what an endpoint puts on the heap: bytes (as
// the allocator rounds them to its size classes, garbage from growing the
// sender and receiver arrays included) and allocation count, for an
// endpoint of `topo.Scale` with two injection and two delivery links. The
// lane ends are the caller's (netsim carves them from one array), so they
// are not counted. Two forms are measured: an endpoint of a built network,
// made from the network's shared Shape (Shape.NewEndpoint), and a
// hand-wired one, a network of one that also makes its Shape (New).
//
// The network endpoint is the Endpoint struct (112 B; 192 while it kept
// the route digits and checksum scratch of the messages it built and its
// queue in an array), the sender arrays of one and then two (80 + 144; a
// sender is 72 B, 160 while it kept its reply parse, now the record's) and
// the receiver arrays likewise (96 + 176; a receiver is 88 B, 104 while it
// kept its reply and every payload). 992 B before all that. New adds the
// Shape (168 B in the 176 B class; 144 before it held the settle flags) and
// the flags (8). The ceilings are the measured values: a field added to a
// sender or receiver fails here before it shows as megabytes on a
// 4Ki-endpoint network.
func TestEndpointFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	type ceiling struct{ bytes, allocs uint64 }
	cfg := Config{Width: 8, Header: HeaderSpec{Stages: []StageHeader{{DirBits: 2}, {DirBits: 2}}},
		AppendRouteDigits: func(dst []int, dest int) []int { return append(dst, dest&3, dest>>2&3) }}
	sh, err := NewShape(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ends [4][]link.End
	for i := range ends {
		ends[i] = []link.End{link.New("l", 1).A()}
	}
	attach := func(e *Endpoint) *Endpoint {
		e.AttachInject(ends[0]...)
		e.AttachInject(ends[1]...)
		e.AttachDeliver(ends[2]...)
		e.AttachDeliver(ends[3]...)
		return e
	}
	for _, form := range []struct {
		name  string
		build func() *Endpoint
		max   ceiling
	}{
		{"Shape.NewEndpoint", func() *Endpoint { return attach(sh.NewEndpoint(1)) }, ceiling{608, 5}},
		{"New", func() *Endpoint {
			e, err := New(1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return attach(e)
		}, ceiling{792, 7}},
	} {
		bytes, allocs := footprint(form.build)
		t.Logf("%s: %d B in %d allocations", form.name, bytes, allocs)
		if bytes > form.max.bytes {
			t.Errorf("%s allocates %d B, ceiling %d", form.name, bytes, form.max.bytes)
		}
		if allocs > form.max.allocs {
			t.Errorf("%s makes %d allocations, ceiling %d", form.name, allocs, form.max.allocs)
		}
	}
}

// TestPendingRecordSize pins a message's record in words: its Result (the
// Message inside it) is four uint64 fields and sixteen words, the cached
// stream and route digits three slices, the two flags share a word, the
// reply parse is a slice, two counters and sixteen bytes of checksums,
// flags and phase, and the link that chains a parked or pooled record is a
// word. That is 304 B on a 64-bit target (the 320 B size class). It was
// 224 B before the record took over the route digits and the reply parse,
// which every endpoint and every sender kept at its own peak: records
// scale with the messages in flight, endpoints and senders with the
// network.
func TestPendingRecordSize(t *testing.T) {
	const word = unsafe.Sizeof(uintptr(0))
	if size := unsafe.Sizeof(pending{}); size != 48+32*word {
		t.Fatalf("unsafe.Sizeof(pending{}) = %d, want 48 B + 32 words = %d", size, 48+32*word)
	}
}

// footprint returns the heap bytes and allocations one call of build costs.
// The runtime's own stray allocations only ever add to a trial, so the
// smallest of a few is build's.
func footprint(build func() *Endpoint) (bytes, allocs uint64) {
	const n = 256
	keep := [n]*Endpoint{}
	bytes, allocs = ^uint64(0), ^uint64(0)
	for trial := 0; trial < 5; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = build()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/n)
		allocs = min(allocs, (after.Mallocs-before.Mallocs)/n)
	}
	runtime.KeepAlive(keep)
	return bytes, allocs
}
