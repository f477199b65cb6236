package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"metro/internal/stats"
)

// Perfetto/Chrome trace-event export. The emitted JSON follows the
// Trace Event Format (the `traceEvents` array form) that Perfetto and
// chrome://tracing load directly:
//
//   - every simulation emitter becomes a named thread — routers under a
//     "routers" process, endpoints under "endpoints", network-scope
//     emitters under "network" — with metadata (`ph:"M"`) naming them;
//   - every recorded event becomes a thread-scoped instant (`ph:"i"`)
//     at ts = cycle (1 cycle = 1 µs of trace time), carrying the
//     kind-specific A/B payload and message ID in args;
//   - gauges additionally become counter tracks (`ph:"C"`), so port
//     occupancy, open connections and queue depths plot as time series;
//   - reconstructed message lifecycles (see Summarize) become complete
//     spans (`ph:"X"`) on a "messages" process, one track per source
//     endpoint, phase-by-phase: queue-wait, retry-wait, transmit,
//     turnaround.
//
// The export is deterministic: events are emitted in recorded order,
// spans in message-ID order, and args maps marshal with sorted keys.

// perfettoEvent is one Trace Event Format record. Field order is fixed
// by the struct, so the byte output of Marshal is deterministic.
type perfettoEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type perfettoFile struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// Process IDs of the exported trace. Counters and faults live on the
// network process; each router and endpoint is a thread of its group
// process; message phase spans get their own process so Perfetto shows
// them as a separate track group.
const (
	pidNetwork   = 1
	pidRouters   = 2
	pidEndpoints = 3
	pidMessages  = 4
)

// tidOf maps a source to a stable thread ID within its process.
func tidOf(s Source) int {
	switch s.Kind {
	case SrcRouter:
		// Stage-major, lanes adjacent: stable and collision-free for any
		// realistic topology (< 8192 routers per stage, < 8 lanes).
		return (int(s.Stage)+1)*65536 + int(s.Index)*8 + int(s.Lane)
	case SrcEndpoint:
		return int(s.Index) + 1
	case SrcNetwork:
		return int(s.Stage) + 2 // -1 (whole network) → 1, stage s → s+2
	default:
		return 0
	}
}

func pidOf(s Source) int {
	switch s.Kind {
	case SrcRouter:
		return pidRouters
	case SrcEndpoint:
		return pidEndpoints
	case SrcNetwork:
		return pidNetwork
	default:
		return pidNetwork
	}
}

// ExportPerfetto writes the trace as Chrome trace-event JSON. The
// summary drives the message phase spans; pass Summarize(t) (callers
// that already summarized reuse it).
func ExportPerfetto(w io.Writer, t Trace, s *Summary) error {
	f := perfettoFile{DisplayTimeUnit: "ms", TraceEvents: []perfettoEvent{}}
	meta := func(pid int, name string, sortIdx int) {
		f.TraceEvents = append(f.TraceEvents,
			perfettoEvent{Name: "process_name", Phase: "M", PID: pid,
				Args: map[string]any{"name": name}},
			perfettoEvent{Name: "process_sort_index", Phase: "M", PID: pid,
				Args: map[string]any{"sort_index": sortIdx}})
	}
	meta(pidNetwork, "network", 0)
	meta(pidMessages, "messages", 1)
	meta(pidRouters, "routers", 2)
	meta(pidEndpoints, "endpoints", 3)

	// Thread metadata for every source that appears in the trace, named
	// the way netsim names components ("s2r5.m1", "ep3", "net.s0").
	seen := map[[2]int]bool{}
	named := []perfettoEvent{}
	for _, e := range t.Events {
		key := [2]int{pidOf(e.Src), tidOf(e.Src)}
		if seen[key] {
			continue
		}
		seen[key] = true
		named = append(named, perfettoEvent{
			Name: "thread_name", Phase: "M", PID: key[0], TID: key[1],
			Args: map[string]any{"name": e.Src.String()},
		})
	}
	sort.Slice(named, func(i, j int) bool {
		if named[i].PID != named[j].PID {
			return named[i].PID < named[j].PID
		}
		return named[i].TID < named[j].TID
	})
	f.TraceEvents = append(f.TraceEvents, named...)

	// The event stream: instants everywhere, counters additionally for
	// gauges.
	for _, e := range t.Events {
		ts := float64(e.Cycle)
		if e.Kind.Family() == "gauge" {
			args := map[string]any{"value": e.A}
			if e.Kind == EvGaugeQueueDepth {
				args = map[string]any{"total": e.A, "deepest": e.B}
			}
			f.TraceEvents = append(f.TraceEvents, perfettoEvent{
				Name: counterName(e), Phase: "C", TS: ts, PID: pidNetwork, Args: args,
			})
		} else {
			args := map[string]any{"a": e.A, "b": e.B}
			if e.Msg != 0 {
				args["msg"] = e.Msg
			}
			f.TraceEvents = append(f.TraceEvents, perfettoEvent{
				Name: e.Kind.String(), Phase: "i", TS: ts, Scope: "t",
				PID: pidOf(e.Src), TID: tidOf(e.Src), Cat: category(e.Kind), Args: args,
			})
		}
	}

	// Message lifecycle spans, one track per source endpoint. Phases are
	// sequential, so they render as adjacent slices; zero-length phases
	// are skipped.
	for _, m := range s.Msgs {
		if !m.Complete {
			continue
		}
		span := func(name string, from, to uint64) {
			if to <= from {
				return
			}
			f.TraceEvents = append(f.TraceEvents, perfettoEvent{
				Name: name, Phase: "X", TS: float64(from), Dur: float64(to - from),
				PID: pidMessages, TID: m.Src + 1, Cat: "msg",
				Args: map[string]any{"msg": m.ID, "dest": m.Dest, "retries": m.Retries},
			})
		}
		span("queue-wait", m.Queued, m.FirstAttempt)
		span("retry-wait", m.FirstAttempt, m.LastAttempt)
		span("transmit", m.LastAttempt, m.LastTurn)
		span("turnaround", m.LastTurn, m.Done)
	}
	// Name the message tracks after their source endpoint.
	msgTracks := map[int]bool{}
	for _, m := range s.Msgs {
		if m.Complete && !msgTracks[m.Src] {
			msgTracks[m.Src] = true
		}
	}
	tracks := make([]int, 0, len(msgTracks))
	for src := range msgTracks {
		tracks = append(tracks, src)
	}
	sort.Ints(tracks)
	for _, src := range tracks {
		f.TraceEvents = append(f.TraceEvents, perfettoEvent{
			Name: "thread_name", Phase: "M", PID: pidMessages, TID: src + 1,
			Args: map[string]any{"name": fmt.Sprintf("msgs from ep%d", src)},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// counterName labels a gauge's counter track.
func counterName(e Event) string {
	base := map[Kind]string{
		EvGaugeConns:      "open-conns",
		EvGaugeBusyPorts:  "busy-ports",
		EvGaugeQueueDepth: "queue-depth",
		EvGaugeInFlight:   "in-flight",
	}[e.Kind]
	if e.Src.Stage >= 0 {
		return fmt.Sprintf("%s.s%d", base, e.Src.Stage)
	}
	return base
}

// category groups event kinds for Perfetto's filter UI.
func category(k Kind) string {
	if f := k.Family(); f != "none" {
		return f
	}
	return "gauge"
}

// ExportCSV writes the summary's latency distributions as a CSV
// histogram table: one row per (phase, bucket), with the per-phase
// aggregate statistics repeated for joining. Buckets are equal-width
// over each phase's observed range; buckets must be positive.
func ExportCSV(w io.Writer, s *Summary, buckets int) error {
	if _, err := fmt.Fprintln(w, "phase,count,mean,p50,p95,max,bucket_lo,bucket_hi,bucket_count"); err != nil {
		return err
	}
	phases := []struct {
		name   string
		sample *stats.Sample
	}{
		{"total", &s.TotalLat},
		{"queue-wait", &s.QueueWait},
		{"retry-wait", &s.RetryWait},
		{"transmit", &s.Transmit},
		{"turnaround", &s.Turnaround},
	}
	for _, p := range phases {
		if p.sample.Count() == 0 {
			continue
		}
		for _, b := range p.sample.Buckets(buckets) {
			if _, err := fmt.Fprintf(w, "%s,%d,%.2f,%.0f,%.0f,%.0f,%.2f,%.2f,%d\n",
				p.name, p.sample.Count(), p.sample.Mean(),
				p.sample.Percentile(50), p.sample.Percentile(95), p.sample.Max(),
				b.Lo, b.Hi, b.Count); err != nil {
				return err
			}
		}
	}
	return nil
}
