package telemetry

import (
	"metro/internal/core"
	"metro/internal/nic"
)

// RouterTracer returns a core.Tracer that records the connection
// lifecycle into buf. Attach one per unit-local Buf: netsim gives every
// router column (all cascade lanes, which form one kernel unit) one
// buffer.
func RouterTracer(buf *Buf) core.Tracer { return routerTracer{buf} }

type routerTracer struct{ b *Buf }

func (t routerTracer) src(id core.RouterID) Source {
	return RouterSource(id.Stage, id.Index, id.Lane)
}

// Allocated implements core.Tracer.
func (t routerTracer) Allocated(cycle uint64, id core.RouterID, fp, bp int) {
	t.b.Emit(Event{Cycle: cycle, Src: t.src(id), Kind: EvConnSetup, A: int32(fp), B: int32(bp)})
}

// Blocked implements core.Tracer.
func (t routerTracer) Blocked(cycle uint64, id core.RouterID, fp, dir int, fast bool) {
	kind := EvConnBlockedDetailed
	if fast {
		kind = EvConnBlockedFast
	}
	t.b.Emit(Event{Cycle: cycle, Src: t.src(id), Kind: kind, A: int32(fp), B: int32(dir)})
}

// Released implements core.Tracer.
func (t routerTracer) Released(cycle uint64, id core.RouterID, fp, bp int) {
	t.b.Emit(Event{Cycle: cycle, Src: t.src(id), Kind: EvConnReleased, A: int32(fp), B: int32(bp)})
}

// Reversed implements core.Tracer.
func (t routerTracer) Reversed(cycle uint64, id core.RouterID, fp int, towardSource bool) {
	to := int32(0)
	if towardSource {
		to = 1
	}
	t.b.Emit(Event{Cycle: cycle, Src: t.src(id), Kind: EvConnTurned, A: int32(fp), B: to})
}

// EndpointTracer returns a nic.Tracer that records the message lifecycle
// into buf. Attach one per endpoint (each endpoint is its own kernel
// unit).
func EndpointTracer(buf *Buf) nic.Tracer { return endpointTracer{buf} }

type endpointTracer struct{ b *Buf }

// Message implements nic.Tracer.
func (t endpointTracer) Message(cycle uint64, ep int, kind nic.TraceKind, id uint64, a, b int) {
	var k Kind
	switch kind {
	case nic.TraceQueued:
		k = EvMsgQueued
	case nic.TraceAttempt:
		k = EvMsgAttempt
	case nic.TraceTurnSent:
		k = EvMsgTurnSent
	case nic.TraceBlockedFast:
		k = EvMsgBlockedFast
	case nic.TraceBlockedDetailed:
		k = EvMsgBlockedDetailed
	case nic.TraceChecksumFail:
		k = EvMsgChecksumFail
	case nic.TraceTimeout:
		k = EvMsgTimeout
	case nic.TraceRetried:
		k = EvMsgRetried
	case nic.TraceDelivered:
		k = EvMsgDelivered
	case nic.TraceFailed:
		k = EvMsgFailed
	case nic.TraceArrived:
		k = EvMsgArrived
	default:
		panic("telemetry: unknown nic.TraceKind")
	}
	t.b.Emit(Event{Cycle: cycle, Msg: id, Src: EndpointSource(ep), Kind: k, A: int32(a), B: int32(b)})
}
