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
// The network endpoint is the Endpoint struct (192; 208 while it kept its
// own free list of message records), the sender arrays of one and then two
// (160 + 320; a sender is 160 B) and the receiver arrays likewise (112 +
// 208; a receiver is 104 B). New adds the Shape (144, the record pool's head
// in what was its padding). The ceilings are the measured values: a field
// added to a sender or receiver fails here before it shows as megabytes on
// a 4Ki-endpoint network.
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
	var ends [4][]*link.End
	for i := range ends {
		ends[i] = []*link.End{link.New("l", 1).A()}
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
		{"Shape.NewEndpoint", func() *Endpoint { return attach(sh.NewEndpoint(1)) }, ceiling{992, 5}},
		{"New", func() *Endpoint {
			e, err := New(1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return attach(e)
		}, ceiling{1136, 6}},
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

// TestPendingRecordSize pins a queued message's record in words: its
// Result (the Message inside it) is four uint64 fields and sixteen words,
// the cached stream two slices, the two flags share a word, and the link
// that chains a parked or pooled record takes the word a stage count held
// (the stride of expected is the shape's stage count). That is 224 B on a
// 64-bit target, a size class of its own; the record was 288 B while it
// kept a second copy of the Message beside res.Msg.
func TestPendingRecordSize(t *testing.T) {
	const word = unsafe.Sizeof(uintptr(0))
	if size := unsafe.Sizeof(pending{}); size != 32+24*word {
		t.Fatalf("unsafe.Sizeof(pending{}) = %d, want 32 + 24 words = %d", size, 32+24*word)
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
