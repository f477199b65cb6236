package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"metro/internal/stats"
)

// MessageStats is the reconstructed lifecycle of one message: the
// cycle-stamps of its phase boundaries and its failure/retry counts,
// recovered from the EvMsg* events in a trace.
type MessageStats struct {
	ID        uint64
	Src, Dest int

	Queued       uint64 // EvMsgQueued
	FirstAttempt uint64 // first EvMsgAttempt
	LastAttempt  uint64 // last EvMsgAttempt
	LastTurn     uint64 // last EvMsgTurnSent
	Done         uint64 // EvMsgDelivered / EvMsgFailed

	Attempts        int
	Retries         int
	BlockedFast     int
	BlockedDetailed int
	ChecksumFails   int
	Timeouts        int

	Delivered bool
	// Complete reports whether the full lifecycle — queue entry through
	// final disposition — lies inside the trace window. The flight
	// recorder overwrites oldest events first, so a long run's early
	// messages may be clipped; only complete messages enter the latency
	// samples.
	Complete bool

	hasQueued, hasDone, hasTurn bool
}

// TotalLatency is queue entry to final disposition.
func (m *MessageStats) TotalLatency() uint64 { return m.Done - m.Queued }

// QueueWait is queue entry to the first transmission attempt.
func (m *MessageStats) QueueWait() uint64 { return m.FirstAttempt - m.Queued }

// RetryWait is the time consumed by failed attempts: first attempt to
// the start of the final (successful or last) attempt.
func (m *MessageStats) RetryWait() uint64 { return m.LastAttempt - m.FirstAttempt }

// Transmit is the final attempt's path setup plus data streaming: attempt
// start to TURN transmitted.
func (m *MessageStats) Transmit() uint64 { return m.LastTurn - m.LastAttempt }

// Turnaround is TURN transmitted to final disposition: the network
// reversal plus the reply stream.
func (m *MessageStats) Turnaround() uint64 { return m.Done - m.LastTurn }

// ConnStageStats aggregates the router connection events of one stage.
// With CascadeWidth > 1 every lane contributes its own events.
type ConnStageStats struct {
	Stage                        int
	Setup                        uint64
	BlockedFast, BlockedDetailed uint64
	Turned, Released             uint64
}

// StageConns tallies router connection events per network stage: where
// connections are won, where they block, how often paths reverse. It
// quantifies the congestion structure of a multistage network —
// classically, contention concentrates in the early dilated stages where
// paths have not yet separated.
//
// It consumes the flight-recorder stream: hand its Sink to
// Recorder.SetSink, as Summarize feeds it a recorded trace. Events carry
// the emitting router's structured identity, so cascade lanes fold into
// their logical router's stage and routers never placed in a network
// (stage -1) are ignored. A recorder runs its sink on the stepping
// goroutine at every worker count; read the tally between steps.
type StageConns struct {
	stages []ConnStageStats // indexed by stage, grown on a stage's first event
}

// Sink tallies the connection events of one drained recorder buffer; it
// has the signature Recorder.SetSink expects.
func (c *StageConns) Sink(events []Event) {
	for i := range events {
		ev := &events[i]
		k, stage := ev.Kind, int(ev.Src.Stage)
		if k < EvConnSetup || k > EvConnReleased || ev.Src.Kind != SrcRouter || stage < 0 {
			continue
		}
		for stage >= len(c.stages) {
			c.stages = append(c.stages, ConnStageStats{Stage: len(c.stages)})
		}
		st := &c.stages[stage]
		if k == EvConnSetup {
			st.Setup++
		} else if k == EvConnBlockedFast {
			st.BlockedFast++
		} else if k == EvConnBlockedDetailed {
			st.BlockedDetailed++
		} else if k == EvConnTurned {
			st.Turned++
		} else {
			st.Released++
		}
	}
}

// PerStage returns the tallies for stages [0, n).
func (c *StageConns) PerStage(n int) []ConnStageStats {
	out := make([]ConnStageStats, n)
	for s := range out {
		out[s].Stage = s
	}
	copy(out, c.stages)
	return out
}

// BlockRate returns blocked / (blocked + setup) for the stage.
func (s ConnStageStats) BlockRate() float64 {
	blocked := s.BlockedFast + s.BlockedDetailed
	total := blocked + s.Setup
	if total == 0 {
		return 0
	}
	return float64(blocked) / float64(total)
}

// GaugeSeries condenses one gauge stream (kind, and stage for the
// per-stage gauges; -1 otherwise).
type GaugeSeries struct {
	Stage   int
	Kind    Kind
	Samples int
	Mean    float64
	Max     float64
}

// Summary is the offline aggregation of a recorded trace: event counts,
// per-stage connection structure, reconstructed message lifecycles with
// per-phase latency samples, and gauge series.
type Summary struct {
	Events                int
	Total, Dropped        uint64
	FirstCycle, LastCycle uint64

	Counts [len(kindNames)]int

	Conn []ConnStageStats // stages [0, the last with a connection event]

	Msgs                          []*MessageStats
	Delivered, Failed, Incomplete int
	Arrived, ArrivedIntact        int

	TotalLat, QueueWait, RetryWait, Transmit, Turnaround stats.Sample

	Gauges []GaugeSeries
}

// Summarize aggregates a trace. Events are processed in cycle order
// (stable-sorted: the recorder ring is near-sorted, with only
// epilogue-emitted events landing a flush late).
func Summarize(t Trace) *Summary {
	events := make([]Event, len(t.Events))
	copy(events, t.Events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })

	s := &Summary{Events: len(events), Total: t.Total}
	s.Dropped = t.Total - uint64(len(events))
	if len(events) > 0 {
		s.FirstCycle = events[0].Cycle
		s.LastCycle = events[len(events)-1].Cycle
	}

	msgs := map[uint64]*MessageStats{}
	var conns StageConns
	conns.Sink(events)
	s.Conn = conns.stages
	type gaugeKey struct {
		kind  Kind
		stage int
	}
	gauges := map[gaugeKey]*stats.Sample{}

	msgOf := func(e Event) *MessageStats {
		m := msgs[e.Msg]
		if m == nil {
			m = &MessageStats{ID: e.Msg, Src: int(e.Src.Index), Dest: -1}
			msgs[e.Msg] = m
		}
		return m
	}

	for _, e := range events {
		if int(e.Kind) < len(s.Counts) {
			s.Counts[e.Kind]++
		}
		switch e.Kind {
		case EvNone:
			// Absent from recorded traces by construction.
		case EvMsgQueued:
			m := msgOf(e)
			m.Queued, m.hasQueued = e.Cycle, true
			m.Dest = int(e.A)
		case EvMsgAttempt:
			m := msgOf(e)
			if m.Attempts == 0 {
				m.FirstAttempt = e.Cycle
			}
			m.Attempts++
			m.LastAttempt = e.Cycle
		case EvMsgTurnSent:
			m := msgOf(e)
			m.LastTurn, m.hasTurn = e.Cycle, true
		case EvMsgBlockedFast:
			msgOf(e).BlockedFast++
		case EvMsgBlockedDetailed:
			msgOf(e).BlockedDetailed++
		case EvMsgChecksumFail:
			msgOf(e).ChecksumFails++
		case EvMsgTimeout:
			msgOf(e).Timeouts++
		case EvMsgRetried:
			msgOf(e).Retries = int(e.A)
		case EvMsgDelivered, EvMsgFailed:
			m := msgOf(e)
			m.Done, m.hasDone = e.Cycle, true
			m.Delivered = e.Kind == EvMsgDelivered
			m.Retries = int(e.A)
			m.Dest = int(e.B)
		case EvMsgArrived:
			s.Arrived++
			if e.A == 1 {
				s.ArrivedIntact++
			}
		case EvConnSetup, EvConnBlockedFast, EvConnBlockedDetailed, EvConnTurned, EvConnReleased:
			// Tallied per stage by conns.
		case EvFault:
			// Counted in Counts; faults carry no aggregate beyond that.
		case EvGaugeConns, EvGaugeBusyPorts, EvGaugeQueueDepth, EvGaugeInFlight:
			key := gaugeKey{e.Kind, int(e.Src.Stage)}
			g := gauges[key]
			if g == nil {
				g = &stats.Sample{}
				gauges[key] = g
			}
			g.Add(float64(e.A))
		}
	}

	// Messages, ID-sorted for deterministic output.
	for _, m := range msgs {
		m.Complete = m.hasQueued && m.hasDone && m.Attempts > 0 && m.hasTurn
		s.Msgs = append(s.Msgs, m)
	}
	sort.Slice(s.Msgs, func(i, j int) bool { return s.Msgs[i].ID < s.Msgs[j].ID })
	for _, m := range s.Msgs {
		switch {
		case !m.hasQueued || !m.hasDone:
			s.Incomplete++
			continue
		case m.Delivered:
			s.Delivered++
		default:
			s.Failed++
		}
		if !m.Complete {
			s.Incomplete++
			continue
		}
		s.TotalLat.Add(float64(m.TotalLatency()))
		s.QueueWait.Add(float64(m.QueueWait()))
		s.RetryWait.Add(float64(m.RetryWait()))
		s.Transmit.Add(float64(m.Transmit()))
		s.Turnaround.Add(float64(m.Turnaround()))
	}

	// Gauge series, (kind, stage)-sorted.
	keys := make([]gaugeKey, 0, len(gauges))
	for k := range gauges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].stage < keys[j].stage
	})
	for _, k := range keys {
		g := gauges[k]
		s.Gauges = append(s.Gauges, GaugeSeries{
			Stage: k.stage, Kind: k.kind,
			Samples: g.Count(), Mean: g.Mean(), Max: g.Max(),
		})
	}
	return s
}

// Render formats the summary as the metrotrace -summary report.
func (s *Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events (recorded %d, dropped %d), cycles [%d, %d]\n",
		s.Events, s.Total, s.Dropped, s.FirstCycle, s.LastCycle)

	b.WriteString("\nevents:\n")
	for k, n := range s.Counts {
		if n > 0 {
			fmt.Fprintf(&b, "  %-22s %d\n", Kind(k).String(), n)
		}
	}

	if len(s.Conn) > 0 {
		b.WriteString("\nconnections per stage:\n")
		tbl := stats.Table{Header: []string{"stage", "setup", "blocked-fast", "blocked-detailed", "turned", "released", "block-rate"}}
		for _, c := range s.Conn {
			tbl.Add(fmt.Sprintf("%d", c.Stage), fmt.Sprintf("%d", c.Setup),
				fmt.Sprintf("%d", c.BlockedFast), fmt.Sprintf("%d", c.BlockedDetailed),
				fmt.Sprintf("%d", c.Turned), fmt.Sprintf("%d", c.Released),
				fmt.Sprintf("%.3f", c.BlockRate()))
		}
		b.WriteString(tbl.String())
	}

	fmt.Fprintf(&b, "\nmessages: %d traced, %d delivered, %d failed, %d window-clipped\n",
		len(s.Msgs), s.Delivered, s.Failed, s.Incomplete)
	if s.Arrived > 0 {
		fmt.Fprintf(&b, "arrivals: %d turns verified at destinations, %d intact\n",
			s.Arrived, s.ArrivedIntact)
	}
	if s.TotalLat.Count() > 0 {
		b.WriteString("\nlatency breakdown (cycles, complete messages):\n")
		tbl := stats.Table{Header: []string{"phase", "count", "mean", "p50", "p95", "max"}}
		row := func(name string, sm *stats.Sample) {
			tbl.Add(name, fmt.Sprintf("%d", sm.Count()), fmt.Sprintf("%.1f", sm.Mean()),
				fmt.Sprintf("%.0f", sm.Percentile(50)), fmt.Sprintf("%.0f", sm.Percentile(95)),
				fmt.Sprintf("%.0f", sm.Max()))
		}
		row("total", &s.TotalLat)
		row("queue-wait", &s.QueueWait)
		row("retry-wait", &s.RetryWait)
		row("transmit", &s.Transmit)
		row("turnaround", &s.Turnaround)
		b.WriteString(tbl.String())
	}

	if len(s.Gauges) > 0 {
		b.WriteString("\ngauges:\n")
		tbl := stats.Table{Header: []string{"gauge", "samples", "mean", "max"}}
		for _, g := range s.Gauges {
			name := g.Kind.String()
			if g.Stage >= 0 {
				name = fmt.Sprintf("%s.s%d", g.Kind, g.Stage)
			}
			tbl.Add(name, fmt.Sprintf("%d", g.Samples),
				fmt.Sprintf("%.2f", g.Mean), fmt.Sprintf("%.0f", g.Max))
		}
		b.WriteString(tbl.String())
	}
	return b.String()
}
