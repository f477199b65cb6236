package netsim

import (
	"math/rand"
	"slices"
	"testing"

	"metro/internal/telemetry"
	"metro/internal/topo"
	"metro/internal/word"
)

// TestTraceCapturesEndToEndLifecycle sends one message through a quiet
// network and checks the recorded stream tells its whole story: queued,
// attempt, connection setups along the path, turn, arrival, delivery —
// and that Summarize reconstructs a complete lifecycle from it.
func TestTraceCapturesEndToEndLifecycle(t *testing.T) {
	rec := telemetry.New(telemetry.Options{})
	n, err := Build(Params{
		Spec: topo.Figure1(), Width: 8, DataPipe: 1, LinkDelay: 1,
		FastReclaim: true, Seed: 3, RetryLimit: 50, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Send(2, 11, []byte("hello metro"))
	if !n.RunUntilQuiet(20000) {
		t.Fatal("network did not go quiet")
	}
	s := telemetry.Summarize(rec.Snapshot())
	if s.Delivered != 1 {
		t.Fatalf("summary sees %d delivered messages, want 1\n%s", s.Delivered, s.Render())
	}
	for _, k := range []telemetry.Kind{
		telemetry.EvMsgQueued, telemetry.EvMsgAttempt, telemetry.EvMsgTurnSent,
		telemetry.EvMsgDelivered, telemetry.EvMsgArrived,
		telemetry.EvConnSetup, telemetry.EvConnTurned, telemetry.EvConnReleased,
		telemetry.EvGaugeConns, telemetry.EvGaugeInFlight,
	} {
		if s.Counts[k] == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	m := s.Msgs[0]
	if !m.Complete {
		t.Fatalf("lifecycle incomplete: %+v", m)
	}
	if m.Src != 2 || m.Dest != 11 {
		t.Errorf("src/dest = %d/%d, want 2/11", m.Src, m.Dest)
	}
	if m.TotalLatency() == 0 || m.Transmit() == 0 || m.Turnaround() == 0 {
		t.Errorf("zero-width phases in a real delivery: %+v", m)
	}
	// The per-stage connection structure must cover every stage the path
	// crossed (Figure 1 has 3 stages).
	if len(s.Conn) != 3 {
		t.Errorf("conn stats cover %d stages, want 3", len(s.Conn))
	}
}

// TestGaugePeriodThinsSampling checks GaugePeriod: sampling every 8th
// cycle must record about an eighth of the gauge events.
func TestGaugePeriodThinsSampling(t *testing.T) {
	run := func(period uint64) int {
		rec := telemetry.New(telemetry.Options{})
		n, err := Build(Params{
			Spec: topo.Figure1(), Width: 8, Seed: 3, RetryLimit: 50,
			Recorder: rec, GaugePeriod: period,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		n.Run(64)
		s := telemetry.Summarize(rec.Snapshot())
		return s.Counts[telemetry.EvGaugeInFlight]
	}
	every, eighth := run(0), run(8)
	if every != 64 {
		t.Errorf("default sampling recorded %d in-flight gauges over 64 cycles, want 64", every)
	}
	if eighth != 8 {
		t.Errorf("period-8 sampling recorded %d in-flight gauges over 64 cycles, want 8", eighth)
	}
}

// TestTraceCoversEveryMsgAndConnKind takes the union of four short
// Figure 3 traces and demands every kind of the msg and conn families at
// least once, so an emit site dropped from a router or an endpoint fails
// here instead of vanishing from every trace.
func TestTraceCoversEveryMsgAndConnKind(t *testing.T) {
	base := Params{
		Spec: topo.Figure3(), Width: 8, DataPipe: 2, LinkDelay: 1,
		FastReclaim: true, Seed: 71, RetryLimit: 600, ListenTimeout: 200,
	}
	starved := base
	starved.RetryLimit = 1
	scenarios := []struct {
		name  string
		p     Params
		setup func(*Network) // applied right after Build; nil: none
		fault func(*Network) // applied at cycle 100; nil: none
	}{
		{"congested, detailed replies at stage 1", base, func(n *Network) { setDetailed(n, 1) }, nil},
		{"retry budget of one", starved, nil, nil},
		{"corrupted injection link", base, nil, func(n *Network) {
			flip := func(w word.Word) word.Word {
				if w.Kind == word.Data {
					w.Payload ^= 1
				}
				return w
			}
			n.InjectLink(0, 0).SetCorruptor(flip, flip)
		}},
		{"killed router", base, nil, func(n *Network) { n.KillRouter(1, 0) }},
	}
	seen := map[telemetry.Kind]int{}
	for _, sc := range scenarios {
		rec := telemetry.New(telemetry.Options{})
		p := sc.p
		p.Recorder = rec
		n, err := Build(p)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if sc.setup != nil {
			sc.setup(n)
		}
		rng := rand.New(rand.NewSource(17))
		eps := p.Spec.Endpoints
		for cycle := 0; cycle < 400; cycle++ {
			if cycle == 100 && sc.fault != nil {
				sc.fault(n)
			}
			for k := 0; k < 2; k++ {
				src := rng.Intn(eps)
				n.Send(src, (src+1+rng.Intn(eps-1))%eps, []byte{byte(cycle), byte(src)})
			}
			n.Engine.Step()
		}
		n.Close()
		for _, e := range rec.Snapshot().Events {
			seen[e.Kind]++
		}
	}
	for k := telemetry.EvMsgQueued; k <= telemetry.EvConnReleased; k++ {
		if seen[k] == 0 {
			t.Errorf("no %v event in any of the %d traces", k, len(scenarios))
		}
	}
}

// TestStageConnsAggregatePerStage runs at two workers: the streaming tally
// consumes the merged stream on the stepping goroutine, so it needs no
// lock (the race detector checks) and no serial-engine restriction. It
// must also agree with what Summarize tallies from the recorded ring.
func TestStageConnsAggregatePerStage(t *testing.T) {
	conns := new(telemetry.StageConns)
	rec := telemetry.New(telemetry.Options{})
	rec.SetSink(conns.Sink)
	n, err := Build(Params{
		Spec: topo.Figure1(), Width: 8, DataPipe: 1, LinkDelay: 1,
		FastReclaim: true, Seed: 3, RetryLimit: 500, Recorder: rec, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for src := 0; src < 16; src++ {
		for d := 1; d <= 4; d++ {
			n.Send(src, (src+d*3)%16, []byte{byte(src)})
		}
	}
	if !n.RunUntilQuiet(500000) {
		t.Fatal("network did not go quiet")
	}
	stats := conns.PerStage(3)
	for _, s := range stats {
		if s.Setup == 0 {
			t.Errorf("stage %d saw no allocations", s.Stage)
		}
		if s.Setup < s.Turned/2 {
			t.Errorf("stage %d reversal count inconsistent: %+v", s.Stage, s)
		}
		if r := s.BlockRate(); r < 0 || r >= 1 {
			t.Errorf("stage %d block rate %f out of range", s.Stage, r)
		}
	}
	// Every successful message allocates once per stage; blocked attempts
	// allocate in their prefix stages. So stage 0 must see at least as
	// many allocations as any later stage.
	if stats[0].Setup < stats[2].Setup {
		t.Errorf("allocation counts should not grow downstream: %+v", stats)
	}
	if s := telemetry.Summarize(rec.Snapshot()); s.Dropped != 0 {
		t.Fatalf("the ring dropped %d events; the comparison needs them all", s.Dropped)
	} else if !slices.Equal(s.Conn, stats) {
		t.Errorf("Summarize tallies %+v, the streaming sink %+v", s.Conn, stats)
	}
}
