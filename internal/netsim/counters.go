package netsim

import (
	"fmt"
	"strings"

	"metro/internal/telemetry"
)

// Counters aggregates router connection events per network stage: where
// connections are won, where they block, how often paths reverse. It
// quantifies the congestion structure of a multistage network —
// classically, contention concentrates in the early dilated stages where
// paths have not yet separated.
//
// Counters consumes the flight-recorder stream: hand its Sink to
// Recorder.SetSink on the Recorder passed as Params.Recorder. Events
// carry the emitting router's structured identity, so cascade lanes fold
// into their logical router's stage and routers never placed in a
// network (stage -1) are ignored. The sink runs on the stepping
// goroutine at every worker count; read the aggregates between steps.
type Counters struct {
	stages []StageStats // indexed by stage, grown on a stage's first event
}

// NewCounters returns an empty aggregate.
func NewCounters() *Counters { return &Counters{} }

// Sink tallies the connection events of one drained recorder buffer; it
// has the signature Recorder.SetSink expects.
//
//metrovet:alloc grows once per network stage, on that stage's first event
func (c *Counters) Sink(events []telemetry.Event) {
	for i := range events {
		ev := &events[i]
		stage := int(ev.Src.Stage)
		if ev.Src.Kind != telemetry.SrcRouter || stage < 0 {
			continue
		}
		for stage >= len(c.stages) {
			c.stages = append(c.stages, StageStats{Stage: len(c.stages)})
		}
		st := &c.stages[stage]
		if k := ev.Kind; k == telemetry.EvConnSetup {
			st.Allocated++
		} else if k == telemetry.EvConnBlockedFast || k == telemetry.EvConnBlockedDetailed {
			st.Blocked++
		} else if k == telemetry.EvConnReleased {
			st.Released++
		} else if k == telemetry.EvConnTurned {
			st.Reversed++
		}
	}
}

// StageStats reports the aggregate for one stage.
type StageStats struct {
	Stage                                  int
	Allocated, Blocked, Released, Reversed uint64
}

// BlockRate returns blocked / (blocked + allocated) for the stage.
func (s StageStats) BlockRate() float64 {
	total := s.Blocked + s.Allocated
	if total == 0 {
		return 0
	}
	return float64(s.Blocked) / float64(total)
}

// PerStage returns the aggregates for stages [0, n).
func (c *Counters) PerStage(n int) []StageStats {
	out := make([]StageStats, n)
	for s := range out {
		out[s].Stage = s
	}
	copy(out, c.stages)
	return out
}

// String renders a compact summary.
func (c *Counters) String() string {
	var b strings.Builder
	for _, s := range c.stages {
		fmt.Fprintf(&b, "stage %d: alloc=%d blocked=%d released=%d reversed=%d\n",
			s.Stage, s.Allocated, s.Blocked, s.Released, s.Reversed)
	}
	return b.String()
}
