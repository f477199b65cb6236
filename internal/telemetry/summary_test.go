package telemetry

import (
	"slices"
	"strings"
	"testing"
)

// lifecycleTrace builds a two-message stream: message 1 delivered after
// one blocked retry, message 2 failed after exhausting its budget.
func lifecycleTrace() Trace {
	events := []Event{
		// Message 1: queued@10, attempt@12 blocked fast, retried, attempt@20,
		// turn@30, delivered@38.
		ev(10, EvMsgQueued, EndpointSource(0), 1, 7, 0),
		ev(12, EvMsgAttempt, EndpointSource(0), 1, 1, 0),
		ev(14, EvMsgBlockedFast, EndpointSource(0), 1, 0, 0),
		ev(14, EvMsgRetried, EndpointSource(0), 1, 1, 0),
		ev(20, EvMsgAttempt, EndpointSource(0), 1, 2, 0),
		ev(30, EvMsgTurnSent, EndpointSource(0), 1, 2, 0),
		ev(38, EvMsgDelivered, EndpointSource(0), 1, 1, 7),
		// Message 2: queued@11, attempt@13, checksum fail, failed@50.
		ev(11, EvMsgQueued, EndpointSource(3), 2, 5, 0),
		ev(13, EvMsgAttempt, EndpointSource(3), 2, 1, 0),
		ev(25, EvMsgTurnSent, EndpointSource(3), 2, 1, 0),
		ev(33, EvMsgChecksumFail, EndpointSource(3), 2, 0, 0),
		ev(50, EvMsgFailed, EndpointSource(3), 2, 3, 5),
		// Router activity across two stages.
		ev(12, EvConnSetup, RouterSource(0, 1, 0), 0, 0, 2),
		ev(13, EvConnBlockedFast, RouterSource(1, 4, 0), 0, 1, 0),
		ev(21, EvConnSetup, RouterSource(1, 4, 0), 0, 1, 3),
		ev(30, EvConnTurned, RouterSource(1, 4, 0), 0, 1, 1),
		ev(37, EvConnReleased, RouterSource(0, 1, 0), 0, 0, 2),
		// Arrival at the destination.
		ev(30, EvMsgArrived, EndpointSource(7), 0, 1, 0),
		// Gauges.
		ev(15, EvGaugeConns, NetworkSource(0), 0, 2, 0),
		ev(16, EvGaugeConns, NetworkSource(0), 0, 4, 0),
		ev(15, EvGaugeQueueDepth, NetworkSource(-1), 0, 6, 2),
	}
	return Trace{Events: events, Total: uint64(len(events))}
}

func TestSummarizeMessageLifecycles(t *testing.T) {
	s := Summarize(lifecycleTrace())
	if s.Delivered != 1 || s.Failed != 1 {
		t.Fatalf("delivered/failed = %d/%d, want 1/1", s.Delivered, s.Failed)
	}
	if len(s.Msgs) != 2 {
		t.Fatalf("traced %d messages, want 2", len(s.Msgs))
	}
	m1 := s.Msgs[0]
	if m1.ID != 1 || !m1.Delivered || !m1.Complete {
		t.Fatalf("message 1 state wrong: %+v", m1)
	}
	if m1.Src != 0 || m1.Dest != 7 {
		t.Errorf("message 1 src/dest = %d/%d, want 0/7", m1.Src, m1.Dest)
	}
	if got := m1.TotalLatency(); got != 28 {
		t.Errorf("total latency = %d, want 28", got)
	}
	if got := m1.QueueWait(); got != 2 {
		t.Errorf("queue wait = %d, want 2", got)
	}
	if got := m1.RetryWait(); got != 8 {
		t.Errorf("retry wait = %d, want 8", got)
	}
	if got := m1.Transmit(); got != 10 {
		t.Errorf("transmit = %d, want 10", got)
	}
	if got := m1.Turnaround(); got != 8 {
		t.Errorf("turnaround = %d, want 8", got)
	}
	if m1.Attempts != 2 || m1.Retries != 1 || m1.BlockedFast != 1 {
		t.Errorf("message 1 counts wrong: %+v", m1)
	}
	m2 := s.Msgs[1]
	if m2.Delivered || m2.ChecksumFails != 1 || m2.Retries != 3 {
		t.Errorf("message 2 state wrong: %+v", m2)
	}
	if s.Arrived != 1 || s.ArrivedIntact != 1 {
		t.Errorf("arrivals = %d/%d, want 1/1", s.Arrived, s.ArrivedIntact)
	}
	// Latency samples include both complete messages.
	if s.TotalLat.Count() != 2 {
		t.Errorf("latency sample count = %d, want 2", s.TotalLat.Count())
	}
}

func TestSummarizeConnStages(t *testing.T) {
	s := Summarize(lifecycleTrace())
	if len(s.Conn) != 2 {
		t.Fatalf("conn stages = %d, want 2", len(s.Conn))
	}
	s0, s1 := s.Conn[0], s.Conn[1]
	if s0.Stage != 0 || s0.Setup != 1 || s0.Released != 1 {
		t.Errorf("stage 0 stats wrong: %+v", s0)
	}
	if s1.Stage != 1 || s1.Setup != 1 || s1.BlockedFast != 1 || s1.Turned != 1 {
		t.Errorf("stage 1 stats wrong: %+v", s1)
	}
	if got := s1.BlockRate(); got != 0.5 {
		t.Errorf("stage 1 block rate = %f, want 0.5", got)
	}
}

// TestStageConnsFoldsLanes checks that the tally keys on the event source's
// stage directly: cascade lanes fold into their logical stage, and an
// unplaced router (core.FreeID: stage -1) is ignored instead of leaking
// into a real stage. Summarize tallies the same way.
func TestStageConnsFoldsLanes(t *testing.T) {
	setup := func(cycle uint64, stage, index, lane int) Event {
		return ev(cycle, EvConnSetup, RouterSource(stage, index, lane), 0, 0, 0)
	}
	events := []Event{
		setup(1, 2, 11, 0),
		setup(2, 2, 4, 1), // cascade lane, same stage
		ev(3, EvConnBlockedFast, RouterSource(0, 0, 0), 0, 0, 0),
		setup(4, -1, -1, 0), // unplaced router
	}
	var c StageConns
	c.Sink(events)
	stats := c.PerStage(3)
	if stats[2].Setup != 2 {
		t.Errorf("stage 2 setup = %d, want 2 (lane events must fold in)", stats[2].Setup)
	}
	if stats[0].BlockedFast != 1 {
		t.Errorf("stage 0 blocked = %d, want 1", stats[0].BlockedFast)
	}
	for _, s := range stats {
		if s.Stage != 2 && s.Setup != 0 {
			t.Errorf("stage %d setup = %d, want 0 (FreeID must not leak into real stages)", s.Stage, s.Setup)
		}
	}
	if got := Summarize(Trace{Events: events, Total: uint64(len(events))}).Conn; !slices.Equal(got, stats) {
		t.Errorf("Summarize tallies %+v, the sink %+v", got, stats)
	}
}

func TestSummarizeGauges(t *testing.T) {
	s := Summarize(lifecycleTrace())
	if len(s.Gauges) != 2 {
		t.Fatalf("gauge series = %d, want 2", len(s.Gauges))
	}
	conns := s.Gauges[0]
	if conns.Kind != EvGaugeConns || conns.Stage != 0 || conns.Samples != 2 {
		t.Errorf("conns gauge wrong: %+v", conns)
	}
	if conns.Mean != 3 || conns.Max != 4 {
		t.Errorf("conns gauge mean/max = %f/%f, want 3/4", conns.Mean, conns.Max)
	}
}

func TestSummaryWindowClipping(t *testing.T) {
	// A message whose QUEUED event was overwritten by the ring: it must
	// be counted incomplete and excluded from latency samples.
	tr := Trace{
		Total: 5, // 2 events lost to the window
		Events: []Event{
			ev(90, EvMsgTurnSent, EndpointSource(1), 9, 1, 0),
			ev(99, EvMsgDelivered, EndpointSource(1), 9, 0, 4),
			ev(95, EvMsgQueued, EndpointSource(2), 10, 1, 0),
		},
	}
	s := Summarize(tr)
	if s.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", s.Dropped)
	}
	if s.Incomplete != 2 {
		t.Errorf("Incomplete = %d, want 2 (both lifecycles clipped)", s.Incomplete)
	}
	if s.TotalLat.Count() != 0 {
		t.Errorf("clipped messages leaked into latency samples: %d", s.TotalLat.Count())
	}
}

func TestSummaryRender(t *testing.T) {
	out := Summarize(lifecycleTrace()).Render()
	for _, want := range []string{
		"trace: 21 events",
		"MSG-DELIVERED",
		"connections per stage:",
		"latency breakdown",
		"queue-wait",
		"turnaround",
		"gauges:",
		"GAUGE-CONNS.s0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
