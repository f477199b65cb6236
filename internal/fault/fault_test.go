package fault

import (
	"testing"

	"metro/internal/netsim"
	"metro/internal/topo"
)

func build(t *testing.T, mutate func(*netsim.Params)) *netsim.Network {
	t.Helper()
	p := netsim.Params{
		Spec:        topo.Figure1(),
		Width:       8,
		DataPipe:    1,
		LinkDelay:   1,
		FastReclaim: true,
		Seed:        3,
		RetryLimit:  300,
	}
	if mutate != nil {
		mutate(&p)
	}
	n, err := netsim.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func sendAllPairs(n *netsim.Network, skip func(src, dest int) bool) int {
	count := 0
	for src := 0; src < n.Params.Spec.Endpoints; src++ {
		for dest := 0; dest < n.Params.Spec.Endpoints; dest++ {
			if src == dest || (skip != nil && skip(src, dest)) {
				continue
			}
			n.Send(src, dest, []byte{byte(src), byte(dest)})
			count++
		}
	}
	return count
}

func TestDeliveryWithStaticRouterLoss(t *testing.T) {
	// Kill one router in each dilated stage before any traffic: the
	// multipath property plus stochastic retry must still deliver all
	// messages.
	n := build(t, nil)
	NewInjector(n, Plan{
		{At: 0, Kind: RouterKill, Stage: 0, Index: 2},
		{At: 0, Kind: RouterKill, Stage: 1, Index: 5},
	})
	want := sendAllPairs(n, nil)
	if !n.RunUntilQuiet(500000) {
		t.Fatal("network did not go quiet")
	}
	res := n.Results()
	if len(res) != want {
		t.Fatalf("completed %d of %d", len(res), want)
	}
	for _, r := range res {
		if !r.Delivered {
			t.Fatalf("%d->%d undelivered with static faults: %+v", r.Msg.Src, r.Msg.Dest, r)
		}
	}
}

func TestDeliveryWithDynamicLinkFaults(t *testing.T) {
	// Sever inter-stage links while traffic flows: sources detect the
	// damage (timeouts/checksum) and stochastic path selection routes
	// retries around it.
	n := build(t, func(p *netsim.Params) { p.ListenTimeout = 200 })
	NewInjector(n, Plan{
		{At: 100, Kind: LinkKill, Stage: 0, Index: 0, Port: 0},
		{At: 150, Kind: LinkKill, Stage: 1, Index: 3, Port: 1},
		{At: 200, Kind: LinkKill, Stage: 0, Index: 5, Port: 2},
	})
	want := sendAllPairs(n, nil)
	if !n.RunUntilQuiet(1000000) {
		t.Fatal("network did not go quiet")
	}
	res := n.Results()
	if len(res) != want {
		t.Fatalf("completed %d of %d", len(res), want)
	}
	undelivered := 0
	for _, r := range res {
		if !r.Delivered {
			undelivered++
		}
	}
	if undelivered > 0 {
		t.Fatalf("%d messages undelivered despite multipath redundancy", undelivered)
	}
}

func TestStuckBitDetectedAndLocalized(t *testing.T) {
	// A stuck payload bit on a stage-1 output link corrupts messages that
	// cross it. The destination NACKs (end-to-end checksum), the source
	// retries, and the per-stage checksum comparison localizes the fault
	// to stage 2 (the stage that received corrupted words).
	n := build(t, func(p *netsim.Params) { p.ListenTimeout = 300 })
	// Corrupt every stage-1 router's outputs so retries cannot avoid the
	// fault region; localization must still point at stage 2.
	var plan Plan
	for j := 0; j < len(n.Routers[1]); j++ {
		for bp := 0; bp < 4; bp++ {
			plan = append(plan, Event{At: 0, Kind: LinkStuckBit, Stage: 1, Index: j, Port: bp, Bit: 0})
		}
	}
	NewInjector(n, plan)
	n.Send(0, 15, []byte{0x00, 0x02, 0x04}) // payload with bit 0 clear
	n.RunUntilQuiet(100000)
	res := n.Results()
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	r := res[0]
	if r.Delivered {
		t.Fatal("corrupted delivery was acknowledged")
	}
	if r.ChecksumFailures == 0 {
		t.Fatal("no checksum failures recorded")
	}
	if r.SuspectStage != 2 {
		t.Fatalf("fault localized to stage %d, want 2", r.SuspectStage)
	}
}

func TestPortDisableMasksFault(t *testing.T) {
	// Disabling the backward ports attached to a faulty link keeps the
	// fault from ever corrupting traffic: messages route around it with
	// no retries caused by corruption. On a cascaded network the port goes
	// off on every lane, so the lanes keep choosing alike.
	for _, c := range []int{1, 2} {
		n := build(t, func(p *netsim.Params) { p.CascadeWidth = c })
		NewInjector(n, Plan{
			{At: 0, Kind: LinkStuckBit, Stage: 0, Index: 1, Port: 2, Bit: 0},
			{At: 0, Kind: PortDisable, Stage: 0, Index: 1, Port: 2},
		})
		want := sendAllPairs(n, nil)
		if !n.RunUntilQuiet(500000) {
			t.Fatalf("c=%d: network did not go quiet", c)
		}
		for lane, r := range n.Routers[0][1] {
			if r.BackwardEnabled(2) {
				t.Fatalf("c=%d: lane %d still has the disabled port enabled", c, lane)
			}
		}
		res := n.Results()
		if len(res) != want {
			t.Fatalf("c=%d: completed %d of %d", c, len(res), want)
		}
		for _, r := range res {
			if !r.Delivered {
				t.Fatalf("c=%d: undelivered with masked fault: %+v", c, r)
			}
			if r.ChecksumFailures > 0 {
				t.Fatalf("c=%d: masked fault still corrupted traffic: %+v", c, r)
			}
		}
	}
}

func TestRandomPlansDeterministic(t *testing.T) {
	n := build(t, nil)
	a := RandomRouterKills(n, 3, 2, 42, 0, 1000)
	b := RandomRouterKills(n, 3, 2, 42, 0, 1000)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("plan sizes %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different plans")
		}
	}
	c := RandomLinkKills(n, 5, 7, 100, 200)
	if len(c) != 5 {
		t.Fatalf("link plan size %d", len(c))
	}
	for _, e := range c {
		if e.At < 100 || e.At >= 200 {
			t.Fatalf("event outside window: %v", e)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 5, Kind: LinkKill, Stage: 1, Index: 2, Port: 3}
	if e.String() != "@5 link-kill s1r2.p3" {
		t.Fatalf("Event.String = %q", e.String())
	}
	e2 := Event{At: 9, Kind: LinkStuckBit, Stage: -1, Index: 4, Port: 1}
	if e2.String() != "@9 link-stuck-bit ep4.link1" {
		t.Fatalf("Event.String = %q", e2.String())
	}
}
