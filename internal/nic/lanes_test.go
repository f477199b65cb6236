package nic

import (
	"bytes"
	"testing"

	"metro/internal/link"
	"metro/internal/word"
)

// laneFixture joins n delay-1 links into a source-side and a
// destination-side channel of 4-bit lanes.
func laneFixture(n int) (a, b lanes, links []*link.Link) {
	for k := 0; k < n; k++ {
		l := link.New("lane", 1)
		links = append(links, l)
		a, b = append(a, l.A()), append(b, l.B())
	}
	return a, b, links
}

func stepLinks(links []*link.Link) {
	for _, l := range links {
		l.Commit(0)
	}
}

func TestLanesDataRoundTrip(t *testing.T) {
	a, b, links := laneFixture(2)
	a.Send(word.Word{Kind: word.Data, Payload: 0xC5}, 4)
	stepLinks(links)
	if got := links[0].B().Recv(); got.Payload != 0x5 {
		t.Fatalf("lane 0 carries %v, want the low nibble 0x5", got)
	}
	if got := b.Recv(4); got.Kind != word.Data || got.Payload != 0xC5 {
		t.Fatalf("cascaded recv = %v", got)
	}
	// Reverse direction.
	b.Send(word.Word{Kind: word.ChecksumWord, Payload: 0x3A}, 4)
	stepLinks(links)
	if back := a.Recv(4); back.Kind != word.ChecksumWord || back.Payload != 0x3A {
		t.Fatalf("reverse cascaded recv = %v", back)
	}
}

func TestLanesControlReplication(t *testing.T) {
	a, b, links := laneFixture(3)
	route := word.MakeRoute(0b101, 3)
	a.Send(route, 4)
	stepLinks(links)
	for k, l := range links {
		if got := l.B().Recv(); got != route {
			t.Fatalf("lane %d carries %v, want the route word replicated", k, got)
		}
	}
	if got := b.Recv(4); got != route {
		t.Fatalf("route through the cascade = %v, want %v with its Bits kept", got, route)
	}
}

func TestLanesBCBIsAnyLane(t *testing.T) {
	a, _, links := laneFixture(2)
	// Assert BCB on one lane only (as a single member's teardown would).
	for k := range links {
		links[k].B().SendBCB(true)
		stepLinks(links)
		if !a.RecvBCB() {
			t.Fatalf("lane %d's BCB not visible on the cascaded channel", k)
		}
		stepLinks(links)
		if a.RecvBCB() {
			t.Fatalf("lane %d's BCB stuck after deassertion", k)
		}
	}
}

func TestLanesLockstepViolation(t *testing.T) {
	_, b, links := laneFixture(2)
	// Drive the lanes inconsistently (a fault): the merged word is Empty.
	links[0].A().Send(word.Word{Kind: word.Data, Payload: 1})
	links[1].A().Send(word.Word{Kind: word.DataIdle})
	stepLinks(links)
	if got := b.Recv(4); !got.IsEmpty() {
		t.Fatalf("lockstep violation merged to %v, want Empty", got)
	}
}

// TestSingleLanePassesWordsUnchanged: an uncascaded channel is its link
// end, with no mask and no merge, so bits a corruptor sets beyond the
// channel width reach the endpoint as they left the wire.
func TestSingleLanePassesWordsUnchanged(t *testing.T) {
	a, b, links := laneFixture(1)
	links[0].SetCorruptor(func(w word.Word) word.Word {
		w.Payload |= 0x100
		return w
	}, nil)
	a.Send(word.Word{Kind: word.Data, Payload: 0x3A}, 4)
	stepLinks(links)
	if got := b.Recv(4); got != (word.Word{Kind: word.Data, Payload: 0x13A}) {
		t.Fatalf("single lane delivered %v, want DATA(0x13a) unmasked", got)
	}
}

func TestAttachNeedsLanes(t *testing.T) {
	e, err := New(0, Config{Width: 4, Lanes: 2, Header: HeaderSpec{Width: 4},
		AppendRouteDigits: func(dst []int, _ int) []int { return dst }})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("attaching one lane to a two-lane endpoint should panic")
		}
	}()
	e.AttachInject(link.New("l", 1).A())
}

// TestLanesCorruptorCallOrder pins how the channel consults its lanes,
// which a stateful corruptor can observe: in lane order, and RecvBCB stops
// at the first asserted lane.
func TestLanesCorruptorCallOrder(t *testing.T) {
	a, _, links := laneFixture(2)
	calls := 0
	links[1].SetCorruptor(nil, func(w word.Word) word.Word { calls++; return w })
	stage := func(bcb0 bool) {
		for k, l := range links {
			l.B().Send(word.Word{Kind: word.DataIdle})
			l.B().SendBCB(bcb0 && k == 0)
		}
		stepLinks(links)
	}
	for _, tc := range []struct {
		bcb0          bool
		bcbCalls, all int // lane 1 corruptor calls after RecvBCB, then after Recv
	}{{true, 0, 1}, {false, 1, 2}} {
		calls = 0
		stage(tc.bcb0)
		if got := a.RecvBCB(); got != tc.bcb0 {
			t.Fatalf("lane 0 BCB %v: RecvBCB = %v", tc.bcb0, got)
		}
		if calls != tc.bcbCalls {
			t.Fatalf("lane 0 BCB %v: RecvBCB made %d lane 1 corruptor calls, want %d", tc.bcb0, calls, tc.bcbCalls)
		}
		a.Recv(4)
		if calls != tc.all {
			t.Fatalf("lane 0 BCB %v: RecvBCB and Recv made %d lane 1 corruptor calls, want %d", tc.bcb0, calls, tc.all)
		}
	}
}

// TestCascadedLoopbackRequestReply runs a message and its reply over a
// two-lane channel of 4-bit lanes, hand-wired with no routers.
func TestCascadedLoopbackRequestReply(t *testing.T) {
	cascade := func(c *Config) { c.Width, c.Lanes, c.Header.Width = 4, 2, 4 }
	lb := newLoopback(t, cascade, func(c *Config) {
		cascade(c)
		c.Responder = func(_ int, p []byte) []byte { return append([]byte("re:"), p...) }
	})
	lb.src.Offer(Message{ID: 1, Dest: 1, Payload: []byte("wide")})
	lb.run(80)
	if len(lb.results) != 1 || !lb.results[0].Delivered {
		t.Fatalf("results = %+v", lb.results)
	}
	if got := string(lb.results[0].Reply); got != "re:wide" {
		t.Fatalf("reply = %q", got)
	}
	if len(lb.delivers) != 1 || !bytes.Equal(lb.delivers[0], []byte("wide")) || !lb.intact[0] {
		t.Fatalf("delivers = %q intact %v", lb.delivers, lb.intact)
	}
}

// TestCascadedCorruptorCallCount counts the calls a pass-through
// corruptor on lane 1 sees, each way, while a two-lane loopback carries a
// request and its reply. The counts were taken with the cascade's lanes
// behind the channel object this code replaced, so they pin the endpoint
// consulting its lanes in the same order and number.
func TestCascadedCorruptorCallCount(t *testing.T) {
	cascade := func(c *Config) { c.Width, c.Lanes, c.Header.Width = 4, 2, 4 }
	lb := newLoopback(t, cascade, func(c *Config) {
		cascade(c)
		c.Responder = func(_ int, p []byte) []byte { return append([]byte("re:"), p...) }
	})
	const abCalls, baCalls = 20, 22
	var ab, ba int
	lb.lanes[1].SetCorruptor(
		func(w word.Word) word.Word { ab++; return w },
		func(w word.Word) word.Word { ba++; return w })
	lb.src.Offer(Message{ID: 1, Dest: 1, Payload: []byte("wide")})
	lb.run(80)
	if len(lb.results) != 1 || !lb.results[0].Delivered {
		t.Fatalf("results = %+v", lb.results)
	}
	if ab != abCalls || ba != baCalls {
		t.Fatalf("lane 1 corruptor calls A->B %d, B->A %d; want %d, %d", ab, ba, abCalls, baCalls)
	}
}
