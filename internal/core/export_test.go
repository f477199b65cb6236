package core

import "metro/internal/link"

// Test-only access for the external test package, which audits routers
// taken from whole networks built by netsim (an import this package's own
// tests cannot make).

// ClauseWalk returns the error of the reference audit CheckInvariants is
// held to for r.
func ClauseWalk(r *Router) error { return r.clauseWalk() }

// CloneRouter returns a copy of r whose audited state (ports, closers and
// their slots, busyBy, masks, settings and input views) can be corrupted
// without touching r.
func CloneRouter(r *Router) *Router {
	c := *r
	c.fwd = append([]fwdPort(nil), r.fwd...)
	c.busyBy = append([]int8(nil), r.busyBy...)
	c.closers = append(make([]closer, 0, cap(r.closers)), r.closers...)
	c.fin = append([]link.End(nil), r.fin...)
	set := r.set.Clone()
	c.set, c.own = &set, true
	return &c
}

// InvariantCorruption writes one field CheckInvariants reads: i picks the
// port, closer or slot (modulo their count), v is the value written.
type InvariantCorruption struct {
	Name  string
	Apply func(r *Router, i, v int)
}

// InvariantCorruptions covers every kind of field the six clauses read.
var InvariantCorruptions = []InvariantCorruption{
	{"fwd qHead", func(r *Router, i, v int) { r.fwd[i%len(r.fwd)].qHead = uint8(v) }},
	{"fwd qLen", func(r *Router, i, v int) { r.fwd[i%len(r.fwd)].qLen = uint8(v) }},
	{"fwd bp", func(r *Router, i, v int) { r.fwd[i%len(r.fwd)].bp = int8(v) }},
	{"fwd state", func(r *Router, i, v int) { r.fwd[i%len(r.fwd)].state = fpState(v) }},
	{"busyBy marker", func(r *Router, i, v int) { r.busyBy[i%len(r.busyBy)] = int8(v) }},
	{"closer bp", func(r *Router, i, v int) {
		// With no closer in flight, a slot is taken, as detach does.
		if len(r.closers) == 0 {
			r.closers = r.closers[:1]
		}
		r.closers[i%len(r.closers)].bp = int8(v)
	}},
	{"closer qHead", func(r *Router, i, v int) {
		if len(r.closers) > 0 {
			r.closers[i%len(r.closers)].qHead = uint8(v)
		}
	}},
	{"closer qLen", func(r *Router, i, v int) {
		if len(r.closers) > 0 {
			r.closers[i%len(r.closers)].qLen = uint8(v)
		}
	}},
	{"closers capacity", func(r *Router, i, v int) {
		c := cap(r.closers) - 1 - i%cap(r.closers)
		r.closers = r.closers[:min(len(r.closers), c):c]
	}},
	{"second closer on one bp", func(r *Router, i, v int) {
		// With no closer in flight, the first flushes bp v.
		if len(r.closers) == 0 {
			r.closers = append(r.closers, closer{flow: flow{bp: int8(v)}})
		}
		r.closers = append(r.closers, r.closers[i%len(r.closers)])
	}},
	{"queued words on a port with no bp", func(r *Router, i, v int) {
		for k := range r.fwd {
			if p := &r.fwd[(i+k)%len(r.fwd)]; p.bp < 0 {
				p.qHead, p.qLen = 0, uint8(v)
				return
			}
		}
	}},
	{"dilation", func(r *Router, i, v int) {
		// The radix*dilation window only narrows past validation; 0 would
		// divide by zero in both audits.
		if v != 0 {
			r.set.Dilation = v
		}
	}},
	{"live bit", func(r *Router, i, v int) { r.live ^= 1 << (v & 63) }},
	{"enabled bit", func(r *Router, i, v int) { r.enabled ^= 1 << (v & 63) }},
	{"forward enabled", func(r *Router, i, v int) {
		r.set.ForwardEnabled ^= 1 << (i % r.cfg.Inputs)
	}},
}

// WatchedPorts returns r's enabled mask: the forward ports inputPass
// watches.
func WatchedPorts(r *Router) uint64 { return r.enabled }

// PortState is a forward port's connection state, as PortStates reports it.
type PortState = fpState

// PortStates returns the state of each of r's forward ports.
func PortStates(r *Router) []PortState {
	s := make([]PortState, len(r.fwd))
	for fp := range r.fwd {
		s[fp] = r.fwd[fp].state
	}
	return s
}

// ForwardPortMachine is the forward-port connection protocol as a table:
// for each state, the states one Eval may leave a port in, and what moves
// it there. A BCB from downstream tears a connection down to fpDrain
// before the cycle's input is read, so a DROP or an idle channel in the
// same cycle takes it on to fpIdle.
var ForwardPortMachine = map[fpState]map[fpState]string{
	fpIdle: {
		fpHeader:      "a ROUTE word is granted a backward port, HeaderWords > 1",
		fpForward:     "a ROUTE word is granted a backward port, HeaderWords <= 1",
		fpBlockedWait: "a ROUTE word finds no backward port free, detailed reclamation",
		fpDrain:       "a ROUTE word finds no backward port free, fast reclamation",
	},
	fpHeader: {
		fpIdle:    "DROP or an idle channel during setup",
		fpForward: "the last header word is consumed",
		fpDrain:   "BCB from downstream",
	},
	fpForward: {
		fpIdle:     "DROP in or out, or the channel goes idle with no TURN in the pipe",
		fpReversed: "TURN sent downstream",
		fpDrain:    "BCB from downstream",
	},
	fpReversed: {
		fpIdle:    "DROP from the source, or sent toward it",
		fpForward: "TURN sent toward the source",
		fpDrain:   "BCB from downstream",
	},
	fpBlockedWait: {
		fpBlockedReply: "TURN",
		fpIdle:         "DROP or an idle channel",
	},
	fpBlockedReply: {
		fpIdle: "the reply's DROP is sent",
	},
	fpDrain: {
		fpIdle: "DROP or an idle channel",
	},
}
