// Package metro is a cycle-accurate implementation of METRO — the
// Multipath Enhanced Transit Router Organization (Chong, DeHon, Minsky,
// Becker, Egozy, Peretz, Knight; ISCA 1994) — a routing architecture for
// high-performance, short-haul networks in tightly-coupled multiprocessors
// and routing hubs.
//
// A METRO router is a dilated crossbar routing component supporting
// half-duplex bidirectional, pipelined, circuit-switched connections. Each
// router is self-routing with stochastic selection among the logically
// equivalent outputs of each direction; it works in conjunction with
// source-responsible network interfaces to achieve reliable end-to-end
// delivery under congestion and dynamic faults. The architecture separates
// fundamental characteristics from implementation parameters (channel
// width w, header words hw, data pipelining dp, variable turn delay,
// dilation, cascading), and this library models all of them.
//
// The package surface groups into:
//
//   - Topologies: Figure1Topology, Figure3Topology, and the general
//     multibutterfly builder (BuildTopology) — multipath multistage
//     networks with configurable stage radices, dilations and wiring.
//   - Simulation: BuildNetwork assembles routers, pipelined links and
//     endpoints; Network.Send issues reliable messages; RunClosedLoop and
//     LoadSweep drive the Figure-3 style load-latency experiments.
//   - Faults: fault plans (InjectFaults, RandomRouterKills, ...) exercise
//     the architecture's stochastic fault avoidance, and the scan
//     subsystem (NewMultiTAP, LoopbackTest) its diagnosis and masking.
//   - Analysis: the Table 4 closed-form latency model (Table3, Table5,
//     Implementation) regenerating the paper's evaluation tables.
//   - Width cascading: NewCascadeGroup builds wide logical routers from
//     narrow components with shared randomness and the wired-AND IN-USE
//     consistency check.
//
// Everything is deterministic given the seeds in the various parameter
// structures. See DESIGN.md for the system inventory and EXPERIMENTS.md
// for paper-versus-measured results.
package metro

import (
	"metro/internal/cascade"
	"metro/internal/clock"
	"metro/internal/core"
	"metro/internal/fault"
	"metro/internal/latmodel"
	"metro/internal/link"
	"metro/internal/netsim"
	"metro/internal/nic"
	"metro/internal/scan"
	"metro/internal/stats"
	"metro/internal/telemetry"
	"metro/internal/topo"
	"metro/internal/traffic"
	"metro/internal/word"
)

// --- Topology -----------------------------------------------------------

// TopologySpec describes a multipath multistage network: endpoint count,
// links per endpoint, and the router stages.
type TopologySpec = topo.Spec

// StageSpec describes one router stage (inputs, radix, dilation).
type StageSpec = topo.StageSpec

// Topology is an elaborated network structure with full wiring.
type Topology = topo.Topology

// Wiring selects inter-stage permutation style.
type Wiring = topo.Wiring

// Wiring styles.
const (
	WiringInterleave = topo.WiringInterleave
	WiringRandom     = topo.WiringRandom
)

// Figure1Topology returns the paper's 16x16 multipath network (Figure 1).
func Figure1Topology() TopologySpec { return topo.Figure1() }

// Figure3Topology returns the 3-stage radix-4 network of the paper's
// aggregate-performance simulation (Figure 3).
func Figure3Topology() TopologySpec { return topo.Figure3() }

// Topology32 returns the 32-node multibutterfly assumed by the Table 3
// t20,32 estimates for 4x4 routers.
func Topology32() TopologySpec { return topo.Table3Network32() }

// Topology32Radix8 returns the 2-stage 32-node network for 8x8 routers.
func Topology32Radix8() TopologySpec { return topo.Table3Network32Radix8() }

// BuildTopology validates and elaborates a topology specification.
func BuildTopology(spec TopologySpec) (*Topology, error) { return topo.Build(spec) }

// --- Router core --------------------------------------------------------

// RouterConfig holds a router's architectural parameters (Table 1).
type RouterConfig = core.Config

// RouterSettings holds the run-time configurable options (Table 2). A
// per-port option is a mask, bit p for port p, as the scan CONFIG
// register holds it; TurnDelay has an entry per port, forward ports
// first.
type RouterSettings = core.Settings

// Router is one METRO routing component.
type Router = core.Router

// DefaultRouterSettings returns everything-enabled settings for a config.
func DefaultRouterSettings(cfg RouterConfig) RouterSettings { return core.DefaultSettings(cfg) }

// NewRouter constructs a standalone router (most callers want
// BuildNetwork instead).
func NewRouter(name string, cfg RouterConfig, set RouterSettings, seed uint32) *Router {
	return core.NewRouter(name, cfg, set, seed)
}

// --- Simulation ---------------------------------------------------------

// NetworkParams configures a network build.
type NetworkParams = netsim.Params

// Network is an elaborated, runnable METRO network.
type Network = netsim.Network

// Message is one unit of reliable traffic.
type Message = nic.Message

// Result reports the fate and telemetry of a delivered message.
type Result = nic.Result

// Engine is the synchronous simulation kernel.
type Engine = clock.Engine

// Link is a pipelined point-to-point connection.
type Link = link.Link

// LinkEnd is one side's interface to a link.
type LinkEnd = link.End

// NewLink constructs a link with the given pipeline delay per direction: a
// register per direction in a ring of delay+1 planes, an arena of its own.
// Register it with Engine.AddLatch: a link is clock-edge state, and its
// Commit, after every component's Eval, ages what its ends staged by one
// cycle.
func NewLink(name string, delay int) *Link { return link.New(name, delay) }

// NewEngine constructs an empty synchronous simulation engine.
func NewEngine() *Engine { return clock.New() }

// BuildNetwork assembles routers, links and endpoints for the given
// parameters. With NetworkParams.Workers left at 0 the engine chooses how
// many goroutines evaluate the network's units: one for the smallest
// networks (Figure 1), two on networks of Figure 3's size and up, one per
// processor for networks of thousands of endpoints.
// Every choice steps bit-for-bit the same cycles. Call Network.Close when
// done with a network, which releases any worker goroutines.
func BuildNetwork(p NetworkParams) (*Network, error) { return netsim.Build(p) }

// SendOne builds no workload machinery: it offers a single message and
// runs the network until it completes (or maxCycles elapse), returning the
// message's Result. Useful for request-reply examples and smoke tests. It
// works whichever way the network was built: a network with
// NetworkParams.OnResult reports completions only to that hook, so SendOne
// watches the hook for its message while it runs, passing every
// completion on.
func SendOne(n *Network, src, dest int, payload []byte, maxCycles uint64) (Result, bool) {
	id := n.Send(src, dest, payload)
	if hook := n.Params.OnResult; hook != nil {
		var res Result
		found := false
		n.Params.OnResult = func(r Result) {
			if r.Msg.ID == id {
				res, found = r, true
			}
			hook(r)
		}
		defer func() { n.Params.OnResult = hook }()
		n.RunUntilQuiet(maxCycles)
		return res, found
	}
	n.RunUntilQuiet(maxCycles)
	rs := n.TakeResults()
	if len(rs) == 0 {
		return Result{}, false
	}
	return rs[len(rs)-1], true
}

// --- Workloads ----------------------------------------------------------

// RunSpec describes a closed-loop (processor-stall) measurement run.
type RunSpec = traffic.RunSpec

// LoadPoint is one point of a load-latency curve.
type LoadPoint = stats.LoadPoint

// TrafficPattern selects message destinations.
type TrafficPattern = traffic.Pattern

// Built-in traffic patterns.
type (
	// UniformTraffic sends to uniformly random destinations.
	UniformTraffic = traffic.Uniform
	// HotspotTraffic concentrates a fraction of traffic on one endpoint.
	HotspotTraffic = traffic.Hotspot
	// BitReverseTraffic is the adversarial bit-reversal permutation.
	BitReverseTraffic = traffic.BitReverse
	// TransposeTraffic is the matrix-transpose permutation.
	TransposeTraffic = traffic.Transpose
)

// StageCounters aggregates router events (allocations, blocks, reversals)
// per network stage, quantifying where congestion concentrates. It
// consumes the flight-recorder stream: pass its Sink to SetSink on the
// telemetry.Recorder given as NetworkParams.Recorder.
type StageCounters = telemetry.StageConns

// StageStats is one stage's aggregate from StageCounters.
type StageStats = telemetry.ConnStageStats

// NewStageCounters returns an empty per-stage event aggregator.
func NewStageCounters() *StageCounters { return new(telemetry.StageConns) }

// RunClosedLoop executes one measurement run.
func RunClosedLoop(spec RunSpec) (LoadPoint, error) { return traffic.Run(spec) }

// LoadSweep measures a load-latency curve across the given offered loads.
func LoadSweep(spec RunSpec, loads []float64) ([]LoadPoint, error) {
	return traffic.Sweep(spec, loads)
}

// RunOpenLoop executes one Bernoulli-injection (open-loop) measurement:
// generation does not wait for completions, so loads past saturation build
// queues and expose the network's saturation throughput.
func RunOpenLoop(spec RunSpec) (LoadPoint, error) { return traffic.RunOpenLoop(spec) }

// OpenLoopSweep measures an open-loop curve across offered loads.
func OpenLoopSweep(spec RunSpec, loads []float64) ([]LoadPoint, error) {
	return traffic.SweepOpenLoop(spec, loads)
}

// --- Faults and diagnosis ----------------------------------------------

// FaultKind enumerates fault types.
type FaultKind = fault.Kind

// Fault kinds.
const (
	FaultLinkKill     = fault.LinkKill
	FaultLinkStuckBit = fault.LinkStuckBit
	FaultRouterKill   = fault.RouterKill
	FaultPortDisable  = fault.PortDisable
)

// FaultEvent is one scheduled fault.
type FaultEvent = fault.Event

// FaultPlan is a schedule of faults.
type FaultPlan = fault.Plan

// FaultInjector applies a plan as the simulation advances.
type FaultInjector = fault.Injector

// InjectFaults binds a fault plan to a network.
func InjectFaults(n *Network, plan FaultPlan) *FaultInjector { return fault.NewInjector(n, plan) }

// RandomRouterKills schedules count router losses in the first `stages`
// stages across the cycle window [start, end).
func RandomRouterKills(n *Network, count, stages int, seed int64, start, end uint64) FaultPlan {
	return fault.RandomRouterKills(n, count, stages, seed, start, end)
}

// RandomLinkKills schedules count link severances.
func RandomLinkKills(n *Network, count int, seed int64, start, end uint64) FaultPlan {
	return fault.RandomLinkKills(n, count, seed, start, end)
}

// MultiTAP is a component's set of redundant scan paths.
type MultiTAP = scan.MultiTAP

// TAP is one IEEE 1149.1 test access port.
type TAP = scan.TAP

// ScanDriver clocks host-side TAP sequences.
type ScanDriver = scan.Driver

// LoopbackResult reports an isolated-link boundary test.
type LoopbackResult = scan.LoopbackResult

// NewMultiTAP attaches sp redundant TAPs to a router, all reaching its
// configuration register.
func NewMultiTAP(r *Router, id uint32) *MultiTAP { return scan.NewMultiTAP(r, id) }

// NewSettingsRegister exposes a router's Table 2 options as a scan data
// register.
func NewSettingsRegister(r *Router) scan.Register { return scan.NewSettingsRegister(r) }

// LoopbackTest drives EXTEST-style patterns over an isolated link,
// localizing stuck bits (both attached ports must be disabled first). Like
// NewRouter, it panics on a width outside [1, 32].
func LoopbackTest(l *Link, width int, extra []uint32) LoopbackResult {
	w, err := word.NewWidth(width)
	if err != nil {
		panic("metro: LoopbackTest: " + err.Error())
	}
	return scan.LoopbackTest(l, w, extra)
}

// --- Width cascading ----------------------------------------------------

// CascadeGroup is a width-cascaded logical router.
type CascadeGroup = cascade.Group

// NewCascadeGroup builds a cascade of c identical members with shared
// randomness; add the group (not the members) to the engine. Like
// NewRouter, it panics on an invalid configuration.
func NewCascadeGroup(name string, cfg RouterConfig, set RouterSettings, c int, seed uint32) *CascadeGroup {
	sh, err := core.NewShape(cfg, set)
	if err != nil {
		panic("metro: cascade " + name + ": " + err.Error())
	}
	return cascade.NewGroup(name, sh, c, seed)
}

// --- Analytical model ---------------------------------------------------

// Implementation is one METRO technology binding in the Table 4 latency
// model.
type Implementation = latmodel.Implementation

// Baseline models one contemporary routing technology (Table 5).
type Baseline = latmodel.Baseline

// Table3 returns the paper's Table 3 implementation points; each row's
// T2032 reproduces the printed value exactly.
func Table3() []Implementation { return latmodel.Table3() }

// Table5 returns the paper's contemporary-technology comparisons.
func Table5() []Baseline { return latmodel.Table5() }

// PaperT2032 lists the t20,32 values the paper prints for Table 3.
func PaperT2032() []float64 { return append([]float64(nil), latmodel.PaperT2032...) }
