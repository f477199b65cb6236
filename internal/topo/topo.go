// Package topo constructs the multipath, multistage network topologies
// METRO routers are designed for (paper, Section 2, Figure 1).
//
// In a multibutterfly-style network each stage subdivides the set of
// possible destinations into classes determined by the radix of its routing
// components; dilated routers provide multiple logically equivalent links
// toward each class, creating many independent source-destination paths.
// The final stage typically uses dilation-1 routers so that the complete
// loss of any final-stage router isolates no endpoint (each endpoint's
// delivery links come from distinct routers).
//
// The package is purely structural: it computes router counts, inter-stage
// wiring (deterministically interleaved or randomly wired, as studied in
// Leighton/Lisinski/Maggs), routing digit sequences, path enumeration and
// structural fault-tolerance properties. Packages netsim and cascade
// instantiate simulators from these descriptions.
package topo

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// Wiring selects how the logically equivalent wires between consecutive
// stages are permuted onto the next stage's inputs.
type Wiring int

const (
	// WiringInterleave spreads the dilated outputs of each router across
	// distinct downstream routers in a deterministic round-robin, a
	// canonical construction with good expansion.
	WiringInterleave Wiring = iota
	// WiringRandom applies a seeded random permutation — the randomly
	// wired multibutterfly of the literature.
	WiringRandom
)

// String returns the wiring mnemonic.
func (w Wiring) String() string {
	switch w {
	case WiringInterleave:
		return "interleave"
	case WiringRandom:
		return "random"
	default:
		return fmt.Sprintf("Wiring(%d)", int(w))
	}
}

// StageSpec describes the routers forming one network stage.
type StageSpec struct {
	// Inputs is the number of forward ports used on each router.
	Inputs int
	// Radix is the number of logical output directions.
	Radix int
	// Dilation is the number of equivalent backward ports per direction.
	Dilation int
}

// Outputs returns the backward ports per router in this stage.
func (s StageSpec) Outputs() int { return s.Radix * s.Dilation }

// Spec describes a complete multipath multistage network.
type Spec struct {
	// Endpoints is the number of network endpoints (sources=destinations).
	Endpoints int
	// EndpointLinks is the number of injection links and delivery links
	// per endpoint (2 in Figure 1, for fault tolerance).
	EndpointLinks int
	// Stages lists the router stages from the source side to the
	// destination side.
	Stages []StageSpec
	// Wiring selects the inter-stage permutation style.
	Wiring Wiring
	// Seed drives WiringRandom; ignored for WiringInterleave.
	Seed int64
}

// NodeKind distinguishes the two node types a wire can attach to.
type NodeKind int

const (
	// KindRouter identifies a router port.
	KindRouter NodeKind = iota
	// KindEndpoint identifies an endpoint link.
	KindEndpoint
)

// PortRef identifies one attachment point of a wire.
type PortRef struct {
	Kind NodeKind
	// Stage and Index locate a router (Kind == KindRouter); for endpoints
	// Index is the endpoint number and Stage is -1.
	Stage, Index int
	// Port is the router forward-port index, or the endpoint link index.
	Port int
}

// String formats the reference for traces.
func (p PortRef) String() string { return string(p.AppendTo(nil)) }

// AppendTo appends the String form of the reference to dst and returns
// it: "ep<index>.<port>" for an endpoint link, "s<stage>r<index>.f<port>"
// for a router forward port.
func (p PortRef) AppendTo(dst []byte) []byte {
	if p.Kind == KindEndpoint {
		dst = append(strconv.AppendInt(append(dst, "ep"...), int64(p.Index), 10), '.')
	} else {
		dst = append(AppendRouterName(dst, p.Stage, p.Index), ".f"...)
	}
	return strconv.AppendInt(dst, int64(p.Port), 10)
}

// AppendRouterName appends the name of the router at (stage, index),
// "s<stage>r<index>", to dst and returns it.
func AppendRouterName(dst []byte, stage, index int) []byte {
	dst = strconv.AppendInt(append(dst, 's'), int64(stage), 10)
	return strconv.AppendInt(append(dst, 'r'), int64(index), 10)
}

// Topology is a fully elaborated network: router counts per stage plus the
// complete wiring.
type Topology struct {
	Spec Spec
	// RoutersPerStage[s] is the number of routers in stage s.
	RoutersPerStage []int
	// BlocksPerStage[s] is the number of destination-class blocks at the
	// input of stage s (1 at stage 0, multiplied by each radix).
	BlocksPerStage []int
	// next[s][j*Outputs+bp] is the flat target of backward port bp of
	// router j in stage s: router*Inputs + port in stage s+1, or
	// endpoint*EndpointLinks + link after the last stage. Out decodes it;
	// the injection wiring is arithmetic and stored nowhere (Inject).
	next [][]int32
}

// Inject returns the stage-0 forward port fed by endpoint e's injection
// link k: wire w = e*ne + k attaches to router (w mod R0), input
// (w div R0), spreading each endpoint's links over distinct routers.
func (t *Topology) Inject(e, k int) PortRef {
	w, r0 := e*t.Spec.EndpointLinks+k, t.RoutersPerStage[0]
	return PortRef{Kind: KindRouter, Stage: 0, Index: w % r0, Port: w / r0}
}

// Out returns the attachment of backward port bp of router j in stage s:
// a forward port in stage s+1, or an endpoint delivery link after the
// last stage.
func (t *Topology) Out(s, j, bp int) PortRef {
	x := int(t.next[s][j*t.Spec.Stages[s].Outputs()+bp])
	if s+1 == len(t.Spec.Stages) {
		ne := t.Spec.EndpointLinks
		return PortRef{Kind: KindEndpoint, Stage: -1, Index: x / ne, Port: x % ne}
	}
	in := t.Spec.Stages[s+1].Inputs
	return PortRef{Kind: KindRouter, Stage: s + 1, Index: x / in, Port: x % in}
}

// Build validates the specification and elaborates the full topology.
func Build(spec Spec) (*Topology, error) {
	if err := Validate(spec); err != nil {
		return nil, err
	}
	t := &Topology{Spec: spec}
	S := len(spec.Stages)

	t.BlocksPerStage = make([]int, S+1)
	t.BlocksPerStage[0] = 1
	for s, st := range spec.Stages {
		t.BlocksPerStage[s+1] = t.BlocksPerStage[s] * st.Radix
	}

	// Wire conservation: all outputs of stage s feed the inputs of stage
	// s+1, so R_{s+1} = R_s * o_s / i_{s+1} with R_0 = N*ne/i_0.
	t.RoutersPerStage = make([]int, S)
	wires, widest := spec.Endpoints*spec.EndpointLinks, 0
	for s, st := range spec.Stages {
		t.RoutersPerStage[s] = wires / st.Inputs
		wires = t.RoutersPerStage[s] * st.Outputs()
		widest = max(widest, wires/t.BlocksPerStage[s+1])
	}

	// Only random wiring draws from the seed; its source is 5 KB, so the
	// interleaved networks go without.
	var rng *rand.Rand
	if spec.Wiring == WiringRandom {
		rng = rand.New(rand.NewSource(spec.Seed))
	}

	// Inter-stage wiring, block by block, through one scratch list of the
	// widest block's wires.
	t.next = make([][]int32, S)
	targets := make([]int32, 0, widest)
	for s, st := range spec.Stages {
		rs, outs := t.RoutersPerStage[s], st.Outputs()
		next := make([]int32, rs*outs)
		t.next[s] = next
		blocks := t.BlocksPerStage[s]
		perBlock := rs / blocks
		for b := 0; b < blocks; b++ {
			for q := 0; q < st.Radix; q++ {
				targets = t.targetPorts(targets[:0], s+1, b*st.Radix+q, perBlock*st.Dilation)
				if rng != nil {
					rng.Shuffle(len(targets), func(x, y int) {
						targets[x], targets[y] = targets[y], targets[x]
					})
				}
				// Wires leaving block b in direction q, router-major.
				x := 0
				for j := b * perBlock; j < (b+1)*perBlock; j++ {
					x += copy(next[j*outs+q*st.Dilation:][:st.Dilation], targets[x:])
				}
			}
		}
	}
	return t, nil
}

// targetPorts appends to dst the flat indices (Topology.next) of the n
// attachment points of block `block` at the input of stage s, in
// interleaved order: wire x goes to the block's router (x mod perBlock),
// input (x div perBlock), so consecutive wires hit distinct routers. When
// s equals the stage count, block is the destination endpoint, read as
// one router whose inputs are its delivery links.
func (t *Topology) targetPorts(dst []int32, s, block, n int) []int32 {
	perBlock, in := 1, t.Spec.EndpointLinks
	if s < len(t.Spec.Stages) {
		perBlock, in = t.RoutersPerStage[s]/t.BlocksPerStage[s], t.Spec.Stages[s].Inputs
	}
	for x := 0; x < n; x++ {
		dst = append(dst, int32((block*perBlock+x%perBlock)*in+x/perBlock))
	}
	return dst
}

// Validate checks the structural constraints of a specification.
func Validate(spec Spec) error {
	if spec.Endpoints < 2 {
		return fmt.Errorf("topo: need at least 2 endpoints, got %d", spec.Endpoints)
	}
	if spec.EndpointLinks < 1 {
		return fmt.Errorf("topo: need at least 1 endpoint link, got %d", spec.EndpointLinks)
	}
	if len(spec.Stages) == 0 {
		return fmt.Errorf("topo: need at least one stage")
	}
	prod := 1
	for s, st := range spec.Stages {
		if st.Inputs < 1 || st.Radix < 2 || st.Dilation < 1 {
			return fmt.Errorf("topo: stage %d malformed: %+v", s, st)
		}
		if !isPow2(st.Inputs) || !isPow2(st.Radix) || !isPow2(st.Dilation) {
			return fmt.Errorf("topo: stage %d parameters must be powers of two: %+v", s, st)
		}
		prod *= st.Radix
	}
	if prod != spec.Endpoints {
		return fmt.Errorf("topo: radix product %d != endpoints %d", prod, spec.Endpoints)
	}

	// Wire-count conservation through the stages.
	wiresPerBlock := spec.Endpoints * spec.EndpointLinks // block 0 covers everything
	blocks := 1
	for s, st := range spec.Stages {
		if wiresPerBlock%st.Inputs != 0 {
			return fmt.Errorf("topo: stage %d: %d wires per block not divisible by %d inputs",
				s, wiresPerBlock, st.Inputs)
		}
		perBlock := wiresPerBlock / st.Inputs
		if perBlock < 1 {
			return fmt.Errorf("topo: stage %d has no routers per block", s)
		}
		wiresPerBlock = perBlock * st.Dilation
		blocks *= st.Radix
		// Topology.next holds each of the stage's wires as an int32.
		if wiresPerBlock > math.MaxInt32/blocks {
			return fmt.Errorf("topo: stage %d drives more wires than an int32 indexes", s)
		}
	}
	if wiresPerBlock != spec.EndpointLinks {
		return fmt.Errorf("topo: final stage delivers %d links per endpoint, want %d",
			wiresPerBlock, spec.EndpointLinks)
	}
	return nil
}

// RouteDigits returns the per-stage direction digits selecting destination
// endpoint dest: digit s is the direction a stage-s router must switch
// toward. Stage 0 consumes the most significant digit.
func (t *Topology) RouteDigits(dest int) []int {
	return t.AppendRouteDigits(make([]int, 0, len(t.Spec.Stages)), dest)
}

// AppendRouteDigits is the allocation-free variant of RouteDigits: the
// per-stage directions append to dst, which is returned. Hot senders reuse
// one digit buffer across attempts.
func (t *Topology) AppendRouteDigits(dst []int, dest int) []int {
	span := t.Spec.Endpoints
	rem := dest
	for _, st := range t.Spec.Stages {
		span /= st.Radix
		dst = append(dst, rem/span)
		rem %= span
	}
	return dst
}

// DestOf inverts RouteDigits: the endpoint reached by following the digit
// sequence.
func (t *Topology) DestOf(digits []int) int {
	dest := 0
	span := t.Spec.Endpoints
	for s, st := range t.Spec.Stages {
		span /= st.Radix
		dest += digits[s] * span
	}
	return dest
}

// RouterCount returns the total routers in the network.
func (t *Topology) RouterCount() int {
	n := 0
	for _, r := range t.RoutersPerStage {
		n += r
	}
	return n
}

// LinkCount returns the total links (injection + inter-stage + delivery).
func (t *Topology) LinkCount() int {
	n := t.Spec.Endpoints * t.Spec.EndpointLinks
	for s, st := range t.Spec.Stages {
		n += t.RoutersPerStage[s] * st.Outputs()
	}
	return n
}

// StageOf reports which stage a router index belongs to given a flat
// router numbering (stage by stage).
func (t *Topology) StageOf(flat int) (stage, index int) {
	for s, r := range t.RoutersPerStage {
		if flat < r {
			return s, flat
		}
		flat -= r
	}
	return -1, -1
}

// PathCount counts the distinct source-to-destination paths from endpoint
// src to endpoint dest, excluding none of the network elements.
func (t *Topology) PathCount(src, dest int) int {
	return t.Paths(src, dest, func(stage, index, port int) bool { return false })
}

// Reachable reports whether dest can be reached from src when the routers
// in deadRouters (keyed by stage/index) are removed from the network.
func (t *Topology) Reachable(src, dest int, deadRouters map[[2]int]bool) bool {
	return t.Paths(src, dest, func(stage, index, port int) bool {
		return port < 0 && deadRouters[[2]int{stage, index}]
	}) > 0
}

// Paths counts the distinct paths from endpoint src to endpoint dest that
// avoid every element cut reports. It follows every injection link and, at
// each stage, every equivalent backward port in the required direction.
// cut names an element by (stage, index, port): injection link port of
// endpoint index at stage -1, the router index of a stage with port -1, or
// one of that router's backward ports.
func (t *Topology) Paths(src, dest int, cut func(stage, index, port int) bool) int {
	digits := t.RouteDigits(dest)
	n := 0
	for k := 0; k < t.Spec.EndpointLinks; k++ {
		if !cut(-1, src, k) {
			n += t.paths(t.Inject(src, k), digits, dest, cut)
		}
	}
	return n
}

func (t *Topology) paths(at PortRef, digits []int, dest int, cut func(stage, index, port int) bool) int {
	if at.Kind == KindEndpoint {
		if at.Index == dest {
			return 1
		}
		return 0
	}
	if cut(at.Stage, at.Index, -1) {
		return 0
	}
	d := t.Spec.Stages[at.Stage].Dilation
	n := 0
	for bp := digits[at.Stage] * d; bp < (digits[at.Stage]+1)*d; bp++ {
		if !cut(at.Stage, at.Index, bp) {
			n += t.paths(t.Out(at.Stage, at.Index, bp), digits, dest, cut)
		}
	}
	return n
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
