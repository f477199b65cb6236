package netsim

import (
	"math/bits"

	"metro/internal/telemetry"
)

// wireTelemetry attaches the flight recorder to a network under
// construction: one unit-local buffer per router column (all cascade
// lanes of a logical router belong to one kernel unit, so they may share
// it), one per endpoint, and one network-scope buffer for the
// serialized-epilogue emitters (gauge sampler, fault injector). Buffer
// registration order — router columns stage-major, then endpoints, then
// the network buffer — is a pure function of the topology, so the
// recorder's within-cycle merge order is identical at every worker
// count.
func wireTelemetry(n *Network) {
	rec := n.Params.Recorder
	for s := range n.Routers {
		for _, lanes := range n.Routers[s] {
			buf := rec.NewBuf()
			for _, r := range lanes {
				r.SetTelemetry(buf)
			}
		}
	}
	for _, ep := range n.Endpoints {
		ep.SetTelemetry(rec.NewBuf())
	}
	n.netBuf = rec.NewBuf()
}

// FaultSink returns the network-scope telemetry buffer serialized
// epilogue emitters (the fault injector) record into, or nil when the
// network was built without a Recorder.
func (n *Network) FaultSink() *telemetry.Buf { return n.netBuf }

// gaugeSampler is the per-cycle gauge emitter: port occupancy and open
// connections per stage, endpoint queue depths, and in-flight endpoint
// count. It registers in the serialized epilogue (plain Engine.Add), so
// it observes the network between the unit Evals and the commit —
// the same quiescent window the collector uses — and only reads.
type gaugeSampler struct {
	n      *Network
	buf    *telemetry.Buf
	period uint64
}

// Eval samples every gauge when the cycle lands on the sampling period.
//
//metrovet:shared read-only sampler in the serialized epilogue: every unit Eval has completed at the barrier, and nothing is mutated
//metrovet:truncate gauge counts are bounded by port, router and endpoint counts, far below 2^31
func (g *gaugeSampler) Eval(cycle uint64) {
	if cycle%g.period != 0 {
		return
	}
	for s := range g.n.Routers {
		conns, busy := 0, 0
		for _, lanes := range g.n.Routers[s] {
			r := lanes[0] // the lanes of a column run in lockstep
			conns += r.ConnectionCount()
			busy += bits.OnesCount64(r.BackwardInUse())
		}
		g.buf.Emit(telemetry.Event{
			Cycle: cycle, Src: telemetry.NetworkSource(s),
			Kind: telemetry.EvGaugeConns, A: int32(conns),
		})
		g.buf.Emit(telemetry.Event{
			Cycle: cycle, Src: telemetry.NetworkSource(s),
			Kind: telemetry.EvGaugeBusyPorts, A: int32(busy),
		})
	}
	queued, deepest, inflight := 0, 0, 0
	for _, ep := range g.n.Endpoints {
		q := ep.QueueLen()
		queued += q
		if q > deepest {
			deepest = q
		}
		if ep.Busy() {
			inflight++
		}
	}
	g.buf.Emit(telemetry.Event{
		Cycle: cycle, Src: telemetry.NetworkSource(-1),
		Kind: telemetry.EvGaugeQueueDepth, A: int32(queued), B: int32(deepest),
	})
	g.buf.Emit(telemetry.Event{
		Cycle: cycle, Src: telemetry.NetworkSource(-1),
		Kind: telemetry.EvGaugeInFlight, A: int32(inflight),
	})
}
