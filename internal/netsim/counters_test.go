package netsim

import (
	"testing"

	"metro/internal/core"
	"metro/internal/telemetry"
	"metro/internal/topo"
)

// TestCountersStructuredIdentity checks that aggregation keys on the
// event source's stage directly: cascade lanes fold into their logical
// stage, and unplaced routers (FreeID, stage -1) are ignored instead of
// leaking into a real stage.
func TestCountersStructuredIdentity(t *testing.T) {
	c := NewCounters()
	setup := func(cycle uint64, stage, index, lane int) telemetry.Event {
		return telemetry.Event{Cycle: cycle, Src: telemetry.RouterSource(stage, index, lane), Kind: telemetry.EvConnSetup}
	}
	free := core.FreeID()
	c.Sink([]telemetry.Event{
		setup(1, 2, 11, 0),
		setup(2, 2, 4, 1), // cascade lane, same stage
		{Cycle: 3, Src: telemetry.RouterSource(0, 0, 0), Kind: telemetry.EvConnBlockedFast},
		setup(4, free.Stage, free.Index, free.Lane), // unplaced router
	})
	stats := c.PerStage(3)
	if stats[2].Allocated != 2 {
		t.Errorf("stage 2 allocated = %d, want 2 (lane events must fold in)", stats[2].Allocated)
	}
	if stats[0].Blocked != 1 {
		t.Errorf("stage 0 blocked = %d, want 1", stats[0].Blocked)
	}
	for _, s := range stats {
		if s.Stage == 2 {
			continue
		}
		if s.Allocated != 0 {
			t.Errorf("stage %d allocated = %d, want 0 (FreeID must not leak into real stages)", s.Stage, s.Allocated)
		}
	}
}

// TestCountersAggregatePerStage runs at two workers: the sink consumes
// the merged stream on the stepping goroutine, so the aggregate needs no
// lock (the race detector checks) and no serial-engine restriction.
func TestCountersAggregatePerStage(t *testing.T) {
	counters := NewCounters()
	rec := telemetry.New(telemetry.Options{})
	rec.SetSink(counters.Sink)
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
	stats := counters.PerStage(3)
	totalAlloc := uint64(0)
	for _, s := range stats {
		totalAlloc += s.Allocated
		if s.Allocated == 0 {
			t.Errorf("stage %d saw no allocations", s.Stage)
		}
		if s.Allocated < s.Reversed/2 {
			t.Errorf("stage %d reversal count inconsistent: %+v", s.Stage, s)
		}
	}
	// Every successful message allocates once per stage; blocked attempts
	// allocate in their prefix stages. So stage 0 must see at least as
	// many allocations as any later stage.
	if stats[0].Allocated < stats[2].Allocated {
		t.Errorf("allocation counts should not grow downstream: %+v", stats)
	}
	if counters.String() == "" {
		t.Error("String() empty")
	}
	// Blocking rate well-defined.
	for _, s := range stats {
		if r := s.BlockRate(); r < 0 || r >= 1 {
			t.Errorf("stage %d block rate %f out of range", s.Stage, r)
		}
	}
}
