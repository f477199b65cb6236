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
