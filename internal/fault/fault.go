// Package fault injects static and dynamic faults into simulated METRO
// networks.
//
// The paper's reliability story rests on two mechanisms this package
// exercises: stochastic path selection with source-responsible retry
// (dynamic fault avoidance — Section 4) and scan-driven port disabling
// (static fault masking — Section 5.1). Fault plans schedule link kills,
// stuck-at corruption, router losses and port disables at specific cycles
// of a running simulation.
package fault

import (
	"fmt"
	"math/rand"

	"metro/internal/link"
	"metro/internal/netsim"
	"metro/internal/telemetry"
	"metro/internal/word"
)

// Kind enumerates the supported fault types.
type Kind int

const (
	// LinkKill severs a link completely: both directions deliver nothing.
	LinkKill Kind = iota
	// LinkStuckBit forces one payload bit of every forward word on a link
	// to 1, a classic stuck-at fault that corrupts data without killing
	// the channel.
	LinkStuckBit
	// RouterKill disables every port of a router and severs its output
	// links, modeling complete component loss.
	RouterKill
	// PortDisable turns off a single backward port on every cascade lane
	// of a router, as a scan-driven reconfiguration masking a localized
	// fault would.
	PortDisable
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case LinkKill:
		return "link-kill"
	case LinkStuckBit:
		return "link-stuck-bit"
	case RouterKill:
		return "router-kill"
	case PortDisable:
		return "port-disable"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the cycle the fault manifests (0 = static, present from the
	// start).
	At uint64
	// Kind selects the fault type.
	Kind Kind
	// Stage and Index identify the router; for link faults, the link is
	// the router's backward-port link selected by Port. Stage -1 selects
	// endpoint injection links (Index = endpoint, Port = link index).
	Stage, Index, Port int
	// Bit is the stuck bit position for LinkStuckBit.
	Bit uint
}

// String renders the event for reports.
func (e Event) String() string {
	if e.Stage < 0 {
		return fmt.Sprintf("@%d %v ep%d.link%d", e.At, e.Kind, e.Index, e.Port)
	}
	return fmt.Sprintf("@%d %v s%dr%d.p%d", e.At, e.Kind, e.Stage, e.Index, e.Port)
}

// Plan is a schedule of faults.
type Plan []Event

// Injector applies a Plan to a network as the simulation advances. It
// implements clock.Component and must be added to the network's engine.
type Injector struct {
	net   *netsim.Network
	plan  Plan
	marks []telemetry.Event // plan[k]'s fault event, cycle unset; nil without a recorder
	next  int
	fired []Event
}

// NewInjector binds a plan to a network and registers it with the engine.
// Events fire in slice order; their At cycles should be non-decreasing.
// When the network records telemetry, each event's record is made here,
// once, where the plan is attached.
func NewInjector(n *netsim.Network, plan Plan) *Injector {
	inj := &Injector{net: n, plan: plan}
	if n.FaultSink() != nil {
		inj.marks = make([]telemetry.Event, len(plan))
		for k, e := range plan {
			inj.marks[k] = mark(e)
		}
	}
	n.Engine.Add(inj)
	return inj
}

// mark returns the flight-recorder event of fault e, its cycle unset: Src
// locates the victim (router, or endpoint for injection-link faults), A is
// the fault kind code and B the port.
func mark(e Event) telemetry.Event {
	src := telemetry.RouterSource(e.Stage, e.Index, 0)
	if e.Stage < 0 {
		src = telemetry.EndpointSource(e.Index)
	}
	return telemetry.Event{Src: src, Kind: telemetry.EvFault, A: int32(e.Kind), B: int32(e.Port)}
}

// Eval fires any events scheduled at or before the current cycle.
func (i *Injector) Eval(cycle uint64) {
	for i.next < len(i.plan) && i.plan[i.next].At <= cycle {
		e := i.plan[i.next]
		i.apply(e)
		if i.marks != nil {
			i.record(cycle, i.marks[i.next])
		}
		//metrovet:alloc per-fault-event telemetry, bounded by the plan length
		i.fired = append(i.fired, e)
		i.next++
	}
}

// record emits a fault's event, stamped with the cycle it fired on, into
// the network's flight recorder.
//
//metrovet:shared injector runs in the serialized epilogue; the network-scope telemetry buffer is its sanctioned sink
func (i *Injector) record(cycle uint64, ev telemetry.Event) {
	ev.Cycle = cycle
	i.net.FaultSink().Emit(ev)
}

// Fired returns the events applied so far.
func (i *Injector) Fired() []Event { return i.fired }

// apply mutates links and routers across the whole network.
//
//metrovet:shared injector registers via Engine.Add, so it runs in the serialized epilogue after the worker barrier
func (i *Injector) apply(e Event) {
	switch e.Kind {
	case LinkKill:
		i.linkOf(e).Kill()
	case LinkStuckBit:
		// Payloads are at most 32 bits; masking the position keeps an
		// out-of-range Bit (e.g. from a hand-edited repro string) from
		// silently zeroing the fault instead of sticking a bit.
		bit := uint32(1) << (e.Bit & 31)
		i.linkOf(e).SetCorruptor(func(w word.Word) word.Word {
			w.Payload |= bit
			return w
		}, nil)
	case RouterKill:
		i.net.KillRouter(e.Stage, e.Index)
	case PortDisable:
		for _, r := range i.net.Routers[e.Stage][e.Index] {
			r.SetBackwardEnabled(e.Port, false)
		}
	}
}

// linkOf returns the link an event names, for apply to mutate.
func (i *Injector) linkOf(e Event) link.Link {
	if e.Stage < 0 {
		return i.net.InjectLink(e.Index, e.Port)
	}
	return i.net.OutLink(e.Stage, e.Index, e.Port)
}

// RandomRouterKills builds a plan killing count distinct routers drawn
// uniformly from the first `stages` stages (the dilated stages; killing
// final-stage dilation-1 routers is survivable too but halves delivery
// bandwidth), spread evenly across the window [start, end).
func RandomRouterKills(n *netsim.Network, count int, stages int, seed int64, start, end uint64) Plan {
	rng := rand.New(rand.NewSource(seed))
	type rid struct{ s, j int }
	var all []rid
	for s := 0; s < stages && s < len(n.Routers); s++ {
		for j := range n.Routers[s] {
			all = append(all, rid{s, j})
		}
	}
	rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	if count > len(all) {
		count = len(all)
	}
	plan := make(Plan, 0, count)
	for i := 0; i < count; i++ {
		at := start
		if end > start && count > 0 {
			at = start + uint64(i)*(end-start)/uint64(count)
		}
		plan = append(plan, Event{At: at, Kind: RouterKill, Stage: all[i].s, Index: all[i].j})
	}
	return plan
}

// RandomLinkKills builds a plan severing count distinct inter-stage links.
func RandomLinkKills(n *netsim.Network, count int, seed int64, start, end uint64) Plan {
	rng := rand.New(rand.NewSource(seed))
	type lid struct{ s, j, bp int }
	var all []lid
	for s := range n.Routers {
		for j := range n.Routers[s] {
			for bp := 0; bp < n.RouterAt(s, j).Config().Outputs; bp++ {
				all = append(all, lid{s, j, bp})
			}
		}
	}
	rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	if count > len(all) {
		count = len(all)
	}
	plan := make(Plan, 0, count)
	for i := 0; i < count; i++ {
		at := start
		if end > start && count > 0 {
			at = start + uint64(i)*(end-start)/uint64(count)
		}
		plan = append(plan, Event{At: at, Kind: LinkKill,
			Stage: all[i].s, Index: all[i].j, Port: all[i].bp})
	}
	return plan
}
