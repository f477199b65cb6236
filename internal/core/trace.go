package core

// RouterID is the structured identity of a router within an elaborated
// network. Stage and Index locate the logical router in the topology;
// Lane distinguishes the physical members of a width-cascaded group
// (lane 0 for plain routers). Routers built outside a network carry the
// zero value of FreeID until SetID is called.
type RouterID struct {
	Stage int
	Index int
	Lane  int
}

// FreeID is the identity of a router that has not been placed in a
// network: stage and index are -1, lane 0.
func FreeID() RouterID { return RouterID{Stage: -1, Index: -1, Lane: 0} }

// Tracer receives router-level events for debugging, experiments and the
// example programs. All methods are invoked during Eval; implementations
// must not mutate simulation state (the metrovet eval-isolation rule
// enforces this for tracers in the component packages). A nil tracer
// disables tracing.
type Tracer interface {
	// Allocated reports a successful connection setup: forward port fp was
	// switched to backward port bp.
	Allocated(cycle uint64, id RouterID, fp, bp int)
	// Blocked reports a connection request that found no available
	// backward port in direction dir. fast reports whether fast path
	// reclamation (BCB) or a detailed reply will handle it.
	Blocked(cycle uint64, id RouterID, fp, dir int, fast bool)
	// Released reports that forward port fp's connection closed and its
	// backward port (bp, or -1 if the connection was blocked) was freed.
	Released(cycle uint64, id RouterID, fp, bp int)
	// Reversed reports a connection reversal completing at this router.
	// towardSource is true when data will now flow toward the original
	// source.
	Reversed(cycle uint64, id RouterID, fp int, towardSource bool)
}

// NopTracer is a Tracer that ignores all events.
type NopTracer struct{}

// Allocated implements Tracer.
func (NopTracer) Allocated(uint64, RouterID, int, int) {}

// Blocked implements Tracer.
func (NopTracer) Blocked(uint64, RouterID, int, int, bool) {}

// Released implements Tracer.
func (NopTracer) Released(uint64, RouterID, int, int) {}

// Reversed implements Tracer.
func (NopTracer) Reversed(uint64, RouterID, int, bool) {}
