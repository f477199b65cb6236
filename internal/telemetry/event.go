// Package telemetry is the deterministic, cycle-stamped event bus of the
// simulator: routers, endpoints, the fault injector and netsim's gauge
// sampler emit fixed-size events into per-unit buffers, and a central
// flight recorder merges them in a deterministic order at the cycle
// barrier. The same buffered path runs at every engine worker
// count, so recorded traces are byte-identical
// across worker counts (the differential tests in internal/netsim prove
// it). Exporters turn a recorded trace into Perfetto/Chrome trace-event
// JSON, CSV, and aggregate latency summaries comparable to the paper's
// Table 5.
package telemetry

import "fmt"

// Kind enumerates the event alphabet. Events fall into four families:
// message lifecycle (EvMsg*, sourced by endpoints), connection lifecycle
// (EvConn*, sourced by routers), fault injection (EvFault), and periodic
// gauges (EvGauge*, sourced by netsim's sampler). The A/B payloads are
// kind-specific and documented per constant.
type Kind uint8

const (
	// EvNone is the zero event; it never appears in a recorded trace.
	EvNone Kind = iota

	// EvMsgQueued: a message entered its source endpoint's send queue.
	// Src = endpoint, Msg = id, A = destination endpoint.
	EvMsgQueued
	// EvMsgAttempt: a transmission attempt began. A = attempt (1-based).
	EvMsgAttempt
	// EvMsgTurnSent: header, payload, checksum and TURN are fully
	// transmitted; the source is listening for the reply. A = attempt.
	EvMsgTurnSent
	// EvMsgBlockedFast: the attempt died to backward-channel-busy (fast
	// path reclamation).
	EvMsgBlockedFast
	// EvMsgBlockedDetailed: a detailed blocked reply ended the attempt.
	// A = blocking stage, -1 when unknown.
	EvMsgBlockedDetailed
	// EvMsgChecksumFail: reply verification failed (corrupt reply, NACK,
	// or end-to-end checksum mismatch).
	EvMsgChecksumFail
	// EvMsgTimeout: the per-attempt reply watchdog expired.
	EvMsgTimeout
	// EvMsgRetried: the message went back on the send queue. A = retries
	// so far.
	EvMsgRetried
	// EvMsgDelivered: final disposition — delivered and verified.
	// A = total retries, B = destination endpoint.
	EvMsgDelivered
	// EvMsgFailed: final disposition — retry budget exhausted.
	// A = total retries, B = destination endpoint.
	EvMsgFailed
	// EvMsgArrived: destination side — a TURN arrived and was verified.
	// Src = destination endpoint, Msg = 0 (receivers see no IDs),
	// A = 1 intact / 0 corrupt.
	EvMsgArrived

	// EvConnSetup: a router switched forward port A to backward port B.
	// Src = router.
	EvConnSetup
	// EvConnBlockedFast: a connection request on forward port A found no
	// backward port in direction B; fast path reclamation (BCB) handles
	// it.
	EvConnBlockedFast
	// EvConnBlockedDetailed: as EvConnBlockedFast, but a detailed blocked
	// reply handles it.
	EvConnBlockedDetailed
	// EvConnTurned: a connection reversal completed at this router on
	// forward port A. B = 1 when data now flows toward the source.
	EvConnTurned
	// EvConnReleased: forward port A's connection closed, freeing
	// backward port B (-1 when the connection was blocked).
	EvConnReleased

	// EvFault: the fault injector fired. Src locates the victim (router,
	// or endpoint for injection-link faults), A = fault kind code,
	// B = port/link index (-1 when not applicable).
	EvFault

	// EvGaugeConns: per-stage open-connection count. Src = stage
	// (SrcNetwork), A = count.
	EvGaugeConns
	// EvGaugeBusyPorts: per-stage busy backward-port count (lane 0).
	// Src = stage (SrcNetwork), A = count.
	EvGaugeBusyPorts
	// EvGaugeQueueDepth: endpoint send-queue depth across the network.
	// A = total queued messages, B = deepest single queue.
	EvGaugeQueueDepth
	// EvGaugeInFlight: endpoints with a message mid-flight. A = count.
	EvGaugeInFlight
)

var kindNames = [...]string{
	EvNone:                "NONE",
	EvMsgQueued:           "MSG-QUEUED",
	EvMsgAttempt:          "MSG-ATTEMPT",
	EvMsgTurnSent:         "MSG-TURN-SENT",
	EvMsgBlockedFast:      "MSG-BLOCKED-FAST",
	EvMsgBlockedDetailed:  "MSG-BLOCKED-DETAILED",
	EvMsgChecksumFail:     "MSG-CHECKSUM-FAIL",
	EvMsgTimeout:          "MSG-TIMEOUT",
	EvMsgRetried:          "MSG-RETRIED",
	EvMsgDelivered:        "MSG-DELIVERED",
	EvMsgFailed:           "MSG-FAILED",
	EvMsgArrived:          "MSG-ARRIVED",
	EvConnSetup:           "CONN-SETUP",
	EvConnBlockedFast:     "CONN-BLOCKED-FAST",
	EvConnBlockedDetailed: "CONN-BLOCKED-DETAILED",
	EvConnTurned:          "CONN-TURNED",
	EvConnReleased:        "CONN-RELEASED",
	EvFault:               "FAULT",
	EvGaugeConns:          "GAUGE-CONNS",
	EvGaugeBusyPorts:      "GAUGE-BUSY-PORTS",
	EvGaugeQueueDepth:     "GAUGE-QUEUE-DEPTH",
	EvGaugeInFlight:       "GAUGE-IN-FLIGHT",
}

// String returns the kind mnemonic used by the text codec and metrotrace.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Family groups kinds into the four event families: "msg", "conn",
// "fault", "gauge". metrotrace's filter and the Perfetto category
// labels both select on it.
func (k Kind) Family() string {
	switch {
	case k >= EvMsgQueued && k <= EvMsgArrived:
		return "msg"
	case k >= EvConnSetup && k <= EvConnReleased:
		return "conn"
	case k == EvFault:
		return "fault"
	case k >= EvGaugeConns && k <= EvGaugeInFlight:
		return "gauge"
	}
	return "none"
}

// KindByName resolves a codec mnemonic ("MSG-QUEUED") to its Kind.
func KindByName(name string) (Kind, bool) {
	k, ok := kindByName[name]
	if k == EvNone {
		return EvNone, false
	}
	return k, ok
}

// kindByName inverts the mnemonic table for the text codec.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, name := range kindNames {
		m[name] = Kind(k)
	}
	return m
}()

// SourceKind classifies what emitted an event.
type SourceKind uint8

const (
	// SrcNetwork: network-scope emitters — the gauge sampler (Stage set
	// for per-stage gauges, -1 otherwise).
	SrcNetwork SourceKind = iota
	// SrcRouter: a router, located by Stage/Index/Lane.
	SrcRouter
	// SrcEndpoint: an endpoint, located by Index.
	SrcEndpoint
)

var sourceKindNames = [...]string{
	SrcNetwork:  "net",
	SrcRouter:   "router",
	SrcEndpoint: "ep",
}

// String returns the source-kind mnemonic.
func (k SourceKind) String() string {
	if int(k) < len(sourceKindNames) {
		return sourceKindNames[k]
	}
	return fmt.Sprintf("SourceKind(%d)", uint8(k))
}

// Source locates an event's emitter. It is a fixed-size value type so
// events stay pointer-free (the flight recorder ring imposes no GC
// load).
type Source struct {
	Kind  SourceKind
	Lane  uint8
	Stage int16
	Index int32
}

// The three constructors below narrow an identity into Source's fields.
// Emitters call them once, where Build or a fault plan fixes the identity
// (core.Router.SetID, nic.Shape.NewEndpoint, netsim's gauge sampler,
// fault.NewInjector), and keep the Source: no cycle narrows one.
// topo.Validate keeps every index of a buildable network within int32;
// stages and lanes are single digits.

// RouterSource locates a router by its structured identity.
func RouterSource(stage, index, lane int) Source {
	return Source{Kind: SrcRouter, Stage: int16(stage), Index: int32(index), Lane: uint8(lane)}
}

// EndpointSource locates an endpoint.
func EndpointSource(ep int) Source {
	return Source{Kind: SrcEndpoint, Stage: -1, Index: int32(ep)}
}

// NetworkSource locates a network-scope emitter; stage is -1 for
// whole-network gauges.
func NetworkSource(stage int) Source {
	return Source{Kind: SrcNetwork, Stage: int16(stage), Index: -1}
}

// String renders the source the way netsim names components
// ("s2r5.m1", "ep3", "net", "net.s0").
func (s Source) String() string {
	switch s.Kind {
	case SrcRouter:
		if s.Lane > 0 {
			return fmt.Sprintf("s%dr%d.m%d", s.Stage, s.Index, s.Lane)
		}
		return fmt.Sprintf("s%dr%d", s.Stage, s.Index)
	case SrcEndpoint:
		return fmt.Sprintf("ep%d", s.Index)
	case SrcNetwork:
		if s.Stage >= 0 {
			return fmt.Sprintf("net.s%d", s.Stage)
		}
		return "net"
	}
	return fmt.Sprintf("src(%d)", uint8(s.Kind))
}

// Event is one cycle-stamped telemetry record. It is a fixed-size,
// pointer-free value: the recorder ring holds Events by value and the
// steady-state recording path performs no heap allocation.
type Event struct {
	// Cycle is the simulation cycle the event was observed on.
	Cycle uint64
	// Msg is the message ID for EvMsg* events (0 when not applicable —
	// receivers see no IDs).
	Msg uint64
	// Src locates the emitter.
	Src Source
	// Kind selects the event; A and B carry the kind-specific payload.
	Kind Kind
	A, B int32
}

// String renders one event as the text codec line body.
func (e Event) String() string {
	return fmt.Sprintf("%d %s %s %d %d %d", e.Cycle, e.Kind, e.Src, e.Msg, e.A, e.B)
}
