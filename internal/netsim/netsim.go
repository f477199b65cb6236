// Package netsim assembles complete METRO networks — routers, pipelined
// links and source-responsible endpoints on a multipath multistage
// topology — and runs cycle-accurate simulations of them.
//
// It is the substrate for the paper's aggregate-performance results
// (Figure 3) and for the fault-tolerance and ablation experiments: traffic
// generators (package traffic) drive the endpoints, fault plans (package
// fault) mutate links and routers mid-run, and the collected nic.Results
// aggregate into the reported statistics.
package netsim

import (
	"strconv"

	"metro/internal/clock"
	"metro/internal/core"
	"metro/internal/kernel"
	"metro/internal/link"
	"metro/internal/nic"
	"metro/internal/telemetry"
	"metro/internal/topo"
)

// Params configures a network build.
type Params struct {
	// Spec is the multistage topology to elaborate.
	Spec topo.Spec
	// Width is the channel width w in bits.
	Width int
	// HeaderWords is the hw parameter applied to every stage.
	HeaderWords int
	// StageHeaderWords optionally overrides HeaderWords per stage,
	// allowing networks mixing router generations (an hw=0 bit-stripping
	// stage feeding an hw=2 pipelined-setup stage, say). Entries < 0 fall
	// back to HeaderWords.
	StageHeaderWords []int
	// DataPipe is the dp parameter applied to every router.
	DataPipe int
	// LinkDelay is the pipeline depth of every link (vtd >= 1).
	LinkDelay int
	// StageLinkDelays optionally overrides LinkDelay per link tier:
	// element 0 applies to injection links, element s+1 to the output
	// links of stage s. Shorter entries fall back to LinkDelay. This is
	// the paper's variable turn delay: each port's wire can contribute a
	// different number of pipeline stages (Section 5.1), and the router's
	// Table 2 turn-delay registers record the per-port values.
	StageLinkDelays []int
	// FastReclaim selects fast path reclamation on every forward port;
	// false selects detailed blocked replies everywhere. Mixed mode is set
	// per port after Build (core.Router.SetFastReclaim).
	FastReclaim bool
	// FirstFreeSelection replaces stochastic output selection with the
	// deterministic first-free ablation on every router.
	FirstFreeSelection bool
	// CascadeWidth is the router width-cascade factor c: every logical
	// router is built from c physical components sharing random bits and
	// the wired-AND IN-USE check, every link becomes c parallel lanes,
	// and the logical channel width becomes Width*c (default 1).
	CascadeWidth int
	// Seed drives all PRNGs (wiring, router selection).
	Seed int64
	// MaxActiveSenders bounds concurrent sends per endpoint (0 = all
	// links).
	MaxActiveSenders int
	// RetryLimit bounds attempts per message.
	RetryLimit int
	// ListenTimeout is the per-attempt reply watchdog in cycles.
	ListenTimeout uint64
	// Responder, when set, generates request-reply traffic: the function
	// receives the destination endpoint and request payload and returns
	// the reply payload.
	Responder func(dest int, payload []byte) []byte
	// ResponderDelay, when set, returns the cycles a destination waits
	// before its reply is ready; the connection is held open with
	// DATA-IDLE fill meanwhile.
	ResponderDelay func(dest int, payload []byte) int
	// Recorder, when set, attaches the telemetry flight recorder — the
	// one attach point for observing the network's events: every router,
	// endpoint, the gauge sampler and any fault injector record
	// cycle-stamped events into per-unit buffers that are merged in
	// deterministic order at the cycle barrier. Works at every worker
	// count — recorded traces are byte-identical across them. Streaming
	// consumers (telemetry.StageConns, the metrics bridge, metroserve's
	// SSE tap) subscribe with Recorder.SetSink. A Recorder instance must
	// be wired into at most one Build (buffer registration defines the
	// merge order).
	Recorder *telemetry.Recorder
	// EngineMetrics, when set, attaches operational gauges to the cycle
	// engine: cycles-per-second and step-time sampled on a cycle grid,
	// and the compiled plane's static shape. Purely observational: gauge
	// writes are atomic stores that never feed back into the model, so
	// results are bit-identical with metrics on or off (see
	// clock.EngineMetrics).
	EngineMetrics *clock.EngineMetrics
	// Workers selects how the compiled kernel's units evaluate: n >= 1
	// splits the unit index space — router columns stage-major, then
	// endpoints — into n contiguous ranges run by worker goroutines
	// (see internal/clock), and 1 steps them inline on the calling
	// goroutine. 0, the default, lets the engine choose from the
	// network's size and the processor count: Figure 1 runs inline,
	// Figure 3 and networks up to a few thousand units on two lanes, and
	// one of thousands of endpoints is spread over a goroutine per
	// processor (Engine.Partitions reports the choice).
	// Results are bit-for-bit identical for every value, so Workers is
	// purely a throughput knob. Responder and ResponderDelay run on
	// worker goroutines whenever the engine partitions, so they must be
	// pure functions of their arguments; OnResult and OnDeliver are
	// unaffected (the collector calls them in deterministic order on the
	// stepping goroutine at every worker count).
	Workers int
	// OnResult, when set, receives every completed message, and is then the
	// only place completions go: a network built with OnResult keeps no
	// Results accumulator (Results, TakeResults and ResetResults see
	// nothing), so a completion is stored once, by whoever wants it.
	OnResult func(nic.Result)
	// OnDeliver, when set, observes every destination-side delivery. The
	// payload slice is freshly unpacked for each delivery and belongs to
	// the callee, which may keep or modify it.
	OnDeliver func(dest int, payload []byte, intact bool)
}

func (p Params) withDefaults() Params {
	if p.Width == 0 {
		p.Width = 8
	}
	if p.DataPipe == 0 {
		p.DataPipe = 1
	}
	if p.LinkDelay == 0 {
		p.LinkDelay = 1
	}
	if p.CascadeWidth == 0 {
		p.CascadeWidth = 1
	}
	return p
}

// Network is an elaborated, runnable METRO network.
type Network struct {
	Params Params
	Topo   *topo.Topology
	Engine *clock.Engine
	// Routers holds every router column's lanes, [stage][router][lane]:
	// CascadeWidth lanes per logical router (one without cascading).
	Routers   [][][]*core.Router
	Endpoints []*nic.Endpoint
	// Compiled is the flattened execution plan Build installs as the
	// engine's kernel; its arenas hold every link of the network.
	Compiled *kernel.Compiled

	endpoints *nic.Shape // what every endpoint is built from
	unsettled []bool     // the endpoints' settle flags (nic.Shape.Unsettled)

	// tiers locates every link: tier 0 holds the injection links, tier s+1
	// the output links of stage s, and Build places each tier's links as
	// one run of its delay class's arena, in wiring order (see tierSpan).
	tiers []tierSpan
	// injects is every endpoint's injection lane ends, the A ends of tier
	// 0 in wiring order, lane minor: the prefix of the array the endpoints
	// carve their channels from, so it holds nothing they do not.
	injects []link.End

	results []nic.Result
	nextID  uint64
	netBuf  *telemetry.Buf
}

// collector is the unexported component that settles the endpoints. It is
// the first component registered with Engine.Add — before any driver — so
// it opens the serialized epilogue, after every endpoint's Eval (barrier).
// It settles, in endpoint-index order, each endpoint whose flag (one dense
// scan of nic.Shape.Unsettled) says it finished a message or closed a
// delivery, so hooks that mutate drivers' state and draw random numbers
// see deliveries then completions, cycle-major and endpoint-index minor,
// at every worker count, and each finished message's record is back in
// the pool before any driver offers again.
type collector struct{ n *Network }

func (col *collector) Eval(cycle uint64) {
	n := col.n
	for e, unsettled := range n.unsettled {
		if unsettled {
			//metrovet:shared the collector runs in the serialized epilogue, after every endpoint has evaluated, and Settle touches only the endpoint, its network's pool and the network's hooks
			n.Endpoints[e].Settle()
		}
	}
}

// tierSpan is where one tier's links sit: the i'th link of the tier in
// wiring order, lane minor, is the arena's link of placement index
// base + i. Injection links run endpoint-major, then link k; output links
// router-major, then backward port. The position and the A end its
// upstream holder keeps are all a link needs to be found (tierLink) and
// named (linkNamer), so neither the network nor its arenas keep a table of
// links.
type tierSpan struct {
	arena *link.Arena
	base  int
}

// Build elaborates and wires the network.
func Build(p Params) (*Network, error) {
	p = p.withDefaults()
	top, err := topo.Build(p.Spec)
	if err != nil {
		return nil, err
	}
	n := &Network{Params: p, Topo: top, Engine: clock.New()}
	n.Engine.SetWorkers(p.Workers)
	if p.EngineMetrics != nil {
		n.Engine.SetMetrics(p.EngineMetrics)
	}

	// delayOf resolves the link pipeline depth for a tier (0 = injection,
	// s+1 = outputs of stage s).
	delayOf := func(tier int) int {
		if tier < len(p.StageLinkDelays) && p.StageLinkDelays[tier] > 0 {
			return p.StageLinkDelays[tier]
		}
		return p.LinkDelay
	}
	maxDelay := p.LinkDelay
	for _, d := range p.StageLinkDelays {
		if d > maxDelay {
			maxDelay = d
		}
	}
	hwOf := func(stage int) int {
		if stage < len(p.StageHeaderWords) && p.StageHeaderWords[stage] >= 0 {
			return p.StageHeaderWords[stage]
		}
		return p.HeaderWords
	}

	// Kernel layout. Units are numbered router columns first, stage-major
	// (a column is the logical router at (stage, index) — every cascade
	// lane), and endpoints after; the order is a pure function of the
	// topology, which is what keeps every worker partition deterministic.
	// Link capacity per delay class is counted exactly up front so the
	// arenas are placed full.
	c := p.CascadeWidth
	S := len(p.Spec.Stages)
	ne := p.Spec.EndpointLinks
	nCols := 0
	colBase := make([]int, len(p.Spec.Stages))
	for s, rs := range top.RoutersPerStage {
		colBase[s] = nCols
		nCols += rs
	}
	colUnit := func(s, j int) int { return colBase[s] + j }
	kb := kernel.NewBuilder()
	type delayClass struct {
		links int         // exact population, tallied before placing
		regs  int         // registers handed out so far (the placement prefix sum)
		arena *link.Arena // created once the tally is complete
	}
	classes := make(map[int]*delayClass)
	var delayOrder []int
	// Every endpoint has ne injection links and every router of stage s
	// Outputs output links, each c lanes; a tier's links follow those of
	// the lower tiers of its class.
	n.tiers = make([]tierSpan, S+1)
	for tier := range n.tiers {
		links := n.tierWires(tier) * c
		d := delayOf(tier)
		if classes[d] == nil {
			classes[d] = &delayClass{}
			delayOrder = append(delayOrder, d)
		}
		n.tiers[tier].base = classes[d].links
		classes[d].links += links
	}
	for _, d := range delayOrder {
		dc := classes[d]
		dc.arena = kb.Arena(d, dc.links)
		dc.arena.SetNamer(n.linkNamer(dc.arena))
	}
	for tier := range n.tiers {
		n.tiers[tier].arena = classes[delayOf(tier)].arena
	}
	// Register placement, reader-major: every unit gets one contiguous run
	// of registers per arena for what it reads each cycle, runs in unit
	// order — per cascade lane a router's forward inputs then its backward
	// inputs, an endpoint's delivery then injection inputs. The topology
	// conserves wires (every port of every router is wired exactly once,
	// stage s is fed by tier s and feeds tier s+1), so run lengths are the
	// port counts and placement is a prefix sum ahead of the wiring walk;
	// kernel.Compile audits the result against the ends the routers and
	// endpoints hold, so a topology that broke the assumption would fail
	// the build, not the simulation.
	place := func(tier, n int) int {
		dc := classes[delayOf(tier)]
		base := dc.regs
		dc.regs += n
		return base
	}
	fwdBase := make([]int, nCols*c) // [column unit * c + lane]
	bwdBase := make([]int, nCols*c)
	for s, st := range p.Spec.Stages {
		for j := 0; j < top.RoutersPerStage[s]; j++ {
			for lane := 0; lane < c; lane++ {
				fwdBase[colUnit(s, j)*c+lane] = place(s, st.Inputs)
				bwdBase[colUnit(s, j)*c+lane] = place(s+1, st.Outputs())
			}
		}
	}
	delBase := make([]int, p.Spec.Endpoints) // link k, lane l at base + k*c + l
	injBase := make([]int, p.Spec.Endpoints)
	for e := range delBase {
		delBase[e] = place(S, ne*c)
		injBase[e] = place(0, ne*c)
	}
	// Routers: one per lane; with cascading a column's lanes draw from
	// LFSRs seeded alike and are checked by the wired-AND (cascade.Eval).
	// Every router of a stage has the same configuration and settings, turn
	// delays included: wire conservation feeds every forward port from tier
	// s and every backward port into tier s+1 (see the placement above).
	// The routers read them from one shared core.Shape, and the endpoints'
	// routing header takes each stage's direction bits from it.
	laneBuf := make([]*core.Router, top.RouterCount()*c)
	n.Routers = make([][][]*core.Router, len(p.Spec.Stages))
	var name []byte // scratch for router names
	var header nic.HeaderSpec
	for s, st := range p.Spec.Stages {
		n.Routers[s] = make([][]*core.Router, top.RoutersPerStage[s])
		cfg := core.Config{
			Inputs:       st.Inputs,
			Outputs:      st.Outputs(),
			Width:        p.Width,
			MaxDilation:  st.Dilation,
			HeaderWords:  hwOf(s),
			DataPipe:     p.DataPipe,
			MaxVTD:       max(maxDelay, 1),
			RandomInputs: 2,
			ScanPaths:    2,
		}
		set := core.DefaultSettings(cfg)
		set.Dilation = st.Dilation
		if !p.FastReclaim {
			set.FastReclaim = 0 // every forward port holds for a detailed reply
		}
		for port := range set.TurnDelay {
			set.TurnDelay[port] = delayOf(s)
			if port >= st.Inputs {
				set.TurnDelay[port] = delayOf(s + 1)
			}
		}
		sh, err := core.NewShape(cfg, set)
		if err != nil {
			return nil, err
		}
		header.Stages = append(header.Stages, nic.StageHeader{
			DirBits:     cfg.DirBits(set.Dilation),
			HeaderWords: hwOf(s),
		})
		for j := range n.Routers[s] {
			lanes := take(&laneBuf, c)
			n.Routers[s][j] = lanes
			name = topo.AppendRouterName(name[:0], s, j)
			seed := uint32(p.Seed)*2654435761 + uint32(s)*40503 + uint32(j)*9973 + 1
			// Every lane's LFSR takes the column's seed; the lanes of a
			// cascade are named "<router>.m<lane>".
			for lane := range lanes {
				rname := name
				if c > 1 {
					rname = strconv.AppendInt(append(name, ".m"...), int64(lane), 10)
				}
				r := sh.NewRouter(string(rname), seed)
				r.SetID(s, j, lane)
				if p.FirstFreeSelection {
					r.SetSelectionPolicy(core.SelectFirstFree)
				}
				lanes[lane] = r
			}
		}
	}

	// Endpoints: one shape for all of them. Completions and deliveries wait
	// on their endpoint until the collector settles it, in endpoint-index
	// order, so parallel endpoint evaluation cannot perturb the observable
	// result stream.
	cfg := nic.Config{
		Width:             p.Width,
		Lanes:             c,
		Header:            header,
		AppendRouteDigits: top.AppendRouteDigits,
		MaxActiveSenders:  p.MaxActiveSenders,
		RetryLimit:        p.RetryLimit,
		ListenTimeout:     p.ListenTimeout,
		CloseGap:          p.DataPipe + 2,
		Responder:         p.Responder,
		ResponderDelay:    p.ResponderDelay,
		OnResult: func(_ int, r nic.Result) {
			if hook := n.Params.OnResult; hook != nil {
				hook(r)
			} else {
				n.results = append(n.results, r)
			}
		},
	}
	if p.OnDeliver != nil {
		cfg.OnDeliver = func(e int, payload []byte, intact bool) { n.Params.OnDeliver(e, payload, intact) }
	}
	if n.endpoints, err = nic.NewShape(cfg); err != nil {
		return nil, err
	}
	n.Endpoints = make([]*nic.Endpoint, p.Spec.Endpoints)
	for e := range n.Endpoints {
		n.Endpoints[e] = n.endpoints.NewEndpoint(e)
	}
	n.unsettled = n.endpoints.Unsettled()

	if p.Recorder != nil {
		wireTelemetry(n)
	}

	// Links: injection, inter-stage, delivery — one physical link per
	// cascade lane. An endpoint keeps each channel's lane ends, carved
	// from one array: c per injection and per delivery link.
	epEnds := make([]link.End, 2*ne*c*p.Spec.Endpoints)
	n.injects = epEnds[:ne*c*p.Spec.Endpoints]
	for e := 0; e < p.Spec.Endpoints; e++ {
		for k := 0; k < ne; k++ {
			ref := top.Inject(e, k)
			ends := take(&epEnds, c)
			for lane := range ends {
				down := colUnit(ref.Stage, ref.Index)
				l := kb.Place(n.tiers[0].arena, fwdBase[down*c+lane]+ref.Port, injBase[e]+k*c+lane)
				ends[lane] = l.A()
				n.Routers[ref.Stage][ref.Index][lane].AttachForward(ref.Port, l.B())
			}
			n.Endpoints[e].AttachInject(ends...)
		}
	}
	for s, st := range p.Spec.Stages {
		for j := range n.Routers[s] {
			for bp := 0; bp < st.Outputs(); bp++ {
				ref := top.Out(s, j, bp)
				var ends []link.End
				if ref.Kind == topo.KindEndpoint {
					ends = take(&epEnds, c)
				}
				for lane := 0; lane < c; lane++ {
					var ab int
					if ref.Kind == topo.KindEndpoint {
						ab = delBase[ref.Index] + ref.Port*c + lane
					} else {
						ab = fwdBase[colUnit(ref.Stage, ref.Index)*c+lane] + ref.Port
					}
					l := kb.Place(n.tiers[s+1].arena, ab, bwdBase[colUnit(s, j)*c+lane]+bp)
					n.Routers[s][j][lane].AttachBackward(bp, l.A())
					if ref.Kind == topo.KindEndpoint {
						ends[lane] = l.B()
					} else {
						n.Routers[ref.Stage][ref.Index][lane].AttachForward(ref.Port, l.B())
					}
				}
				if ref.Kind == topo.KindEndpoint {
					n.Endpoints[ref.Index].AttachDeliver(ends...)
				}
			}
		}
	}

	// A column is one unit: the wired-AND IN-USE check reads all its
	// lanes within a cycle, so they must never split across workers.
	for s := range n.Routers {
		for _, lanes := range n.Routers[s] {
			kb.AddColumn(lanes)
		}
	}
	for _, ep := range n.Endpoints {
		kb.AddEndpoint(ep)
	}
	n.Compiled, err = kb.Compile()
	if err != nil {
		return nil, err
	}
	n.Engine.SetKernel(n.Compiled)
	// The plan's unit ranges clear each arena's read plane as their eval
	// ends; its latch then advances the ring, on the stepping goroutine.
	for _, a := range n.Compiled.Arenas() {
		n.Engine.AddLatch(a)
	}
	if m := p.EngineMetrics; m != nil {
		n.Compiled.PublishShape(m.KernelUnits, m.KernelLinks, m.KernelArenas)
	}
	// The collector must be the first serialized component: after every
	// unit's Eval, before any driver or injector registered post-Build.
	n.Engine.Add(&collector{n: n})
	if p.Recorder != nil {
		// The sampler reads the quiescent network at the barrier; the
		// flusher then drains every unit's buffer in registration order.
		// Components registered after Build (drivers, fault injectors) run
		// after the flusher, so their events — stamped with the cycle they
		// occurred on — reach the ring one flush later, identically at
		// every worker count.
		n.Engine.Add(newGaugeSampler(n))
		n.Engine.Add(telemetry.Flusher{R: p.Recorder})
	}
	return n, nil
}

// Close releases the engine's worker goroutines, which a network has
// whenever the engine partitions its units (Engine.Partitions > 1: an
// explicit Workers >= 2, or Workers = 0 from Figure 3 up), and hands
// the endpoints' idle message records and assembly buffers to the next
// network built in this process (nic.Shape.Release). The network remains
// usable afterwards — the pool restarts lazily on the next Step, and the
// endpoints allocate again — so Close is safe to defer unconditionally.
// Anything that builds networks should call it, so sweeps do not
// accumulate idle goroutines or rebuy the storage of the last network.
func (n *Network) Close() {
	n.Engine.StopWorkers()
	n.endpoints.Release(n.Endpoints)
}

// Send offers a message from src to dest and returns its ID. Call it
// between steps or from a driver in the serialized epilogue.
//
//metrovet:shared traffic drivers run in the serialized epilogue, so injection cannot race unit Evals
func (n *Network) Send(src, dest int, payload []byte) uint64 {
	n.nextID++
	id := n.nextID
	n.Endpoints[src].Offer(nic.Message{
		ID: id, Src: src, Dest: dest,
		Payload: payload, Created: n.Engine.Cycle(),
	})
	return id
}

// Run advances the network n cycles.
func (n *Network) Run(cycles uint64) { n.Engine.Run(cycles) }

// RunUntilQuiet steps until no endpoint has queued or in-flight messages,
// up to max cycles. It returns true if the network went quiet.
func (n *Network) RunUntilQuiet(max uint64) bool {
	return n.Engine.RunUntil(n.Quiet, max)
}

// Quiet reports whether no endpoint has a queued or in-flight message.
func (n *Network) Quiet() bool {
	for _, ep := range n.Endpoints {
		if ep.QueueLen() > 0 || ep.Busy() || ep.Receiving() {
			return false
		}
	}
	return true
}

// Results returns the completed-message reports accumulated so far. Only a
// network built without Params.OnResult accumulates them; with one, every
// report went to the hook and Results is empty.
func (n *Network) Results() []nic.Result { return n.results }

// TakeResults returns and clears the accumulated reports (empty for a
// network built with Params.OnResult, like Results). Call it between
// runs; it touches no model state.
func (n *Network) TakeResults() []nic.Result {
	r := n.results
	n.results = nil
	return r
}

// ResetResults clears the accumulated reports while keeping the backing
// array, so long-running drivers that harvest via Results can hold the
// steady-state cycle at zero allocations. It invalidates slices previously
// returned by Results (TakeResults is the transfer-of-ownership variant).
// A network built with Params.OnResult accumulates nothing to clear.
// Call it between runs; it touches no model state.
func (n *Network) ResetResults() { n.results = n.results[:0] }

// RouterAt returns the router at (stage, index) (lane 0).
func (n *Network) RouterAt(stage, index int) *core.Router { return n.Routers[stage][index][0] }

// InjectLink returns endpoint e's k-th injection link (lane 0).
func (n *Network) InjectLink(e, k int) link.Link {
	return n.tierLink(0, e*n.Params.Spec.EndpointLinks+k, 0)
}

// OutLink returns the link attached to backward port bp of router (stage,
// index) (lane 0).
func (n *Network) OutLink(stage, index, bp int) link.Link {
	return n.tierLink(stage+1, index*n.Params.Spec.Stages[stage].Outputs()+bp, 0)
}

// tierLink returns lane lane of wire w of a tier, w counting the tier's
// wires in wiring order (see tierSpan). It rebuilds the link from the A
// end its upstream holder keeps, an endpoint's injection lane or a router
// lane's backward port, and its placement index.
func (n *Network) tierLink(tier, w, lane int) link.Link {
	i := w*n.Params.CascadeWidth + lane
	var a link.End
	if tier == 0 {
		a = n.injects[i]
	} else {
		outs := n.Params.Spec.Stages[tier-1].Outputs()
		a = n.Routers[tier-1][w/outs][lane].BackwardLink(w % outs)
	}
	return link.FromA(a, n.tiers[tier].base+i)
}

// tierWires returns the number of wires in a tier, each CascadeWidth
// links: every endpoint's injection links in tier 0, every output of
// stage s's routers in tier s+1.
func (n *Network) tierWires(tier int) int {
	if tier == 0 {
		return n.Params.Spec.Endpoints * n.Params.Spec.EndpointLinks
	}
	return n.Topo.RoutersPerStage[tier-1] * n.Params.Spec.Stages[tier-1].Outputs()
}

// linkNamer returns the namer of arena a: a link's name is derived from
// where it sits, the tier whose run holds it and its position in that run.
// The tiers of a class lie in the arena in tier order, so the run holding
// link i is the last one of a's that starts at or before it.
func (n *Network) linkNamer(a *link.Arena) func(i int) string {
	return func(i int) string {
		for tier := len(n.tiers) - 1; tier >= 0; tier-- {
			if sp := n.tiers[tier]; sp.arena == a && sp.base <= i {
				return string(n.appendLinkName(nil, tier, i-sp.base))
			}
		}
		return ""
	}
}

// appendLinkName appends the name of the i'th link of a tier to dst:
// "ep<e>.<k>.l<lane>-><port>" for an injection link and
// "s<s>r<j>.b<bp>.l<lane>-><port>" for an output link of stage s, where
// port is the attachment it leads to (topo.PortRef.AppendTo).
func (n *Network) appendLinkName(dst []byte, tier, i int) []byte {
	c := n.Params.CascadeWidth
	lane, w := i%c, i/c
	var to topo.PortRef
	if tier == 0 {
		ne := n.Params.Spec.EndpointLinks
		e, k := w/ne, w%ne
		dst = strconv.AppendInt(append(dst, "ep"...), int64(e), 10)
		dst = strconv.AppendInt(append(dst, '.'), int64(k), 10)
		to = n.Topo.Inject(e, k)
	} else {
		s := tier - 1
		outs := n.Params.Spec.Stages[s].Outputs()
		j, bp := w/outs, w%outs
		dst = strconv.AppendInt(append(topo.AppendRouterName(dst, s, j), ".b"...), int64(bp), 10)
		to = n.Topo.Out(s, j, bp)
	}
	dst = strconv.AppendInt(append(dst, ".l"...), int64(lane), 10)
	return to.AppendTo(append(dst, "->"...))
}

// EachLink visits every physical link in the network — every cascade
// lane of every wire — in arena order: the arenas in plan order, and in
// each the links in placement order, which is tier, then wiring order,
// then lane.
func (n *Network) EachLink(f func(link.Link)) {
	for _, a := range n.Compiled.Arenas() {
		for tier, sp := range n.tiers {
			if sp.arena != a {
				continue
			}
			for w := range n.tierWires(tier) {
				for lane := range n.Params.CascadeWidth {
					f(n.tierLink(tier, w, lane))
				}
			}
		}
	}
}

// KillRouter disables every port of a logical router (all cascade lanes),
// modeling its complete loss. Fault application runs in the serialized
// epilogue; reconfiguring the victim routers is its purpose.
func (n *Network) KillRouter(stage, index int) {
	for _, r := range n.Routers[stage][index] {
		for fp := 0; fp < r.Config().Inputs; fp++ {
			r.SetForwardEnabled(fp, false)
		}
		for bp := 0; bp < r.Config().Outputs; bp++ {
			r.SetBackwardEnabled(bp, false)
		}
	}
	// Sever its attached wires so circuits in flight die too.
	outs := n.Params.Spec.Stages[stage].Outputs()
	for w := index * outs; w < (index+1)*outs; w++ {
		for lane := 0; lane < n.Params.CascadeWidth; lane++ {
			n.tierLink(stage+1, w, lane).Kill()
		}
	}
}

// MessageWords returns the number of channel words a payload of the given
// byte length occupies, including header, end-to-end checksum and TURN —
// useful for sizing workloads against channel bandwidth.
func (n *Network) MessageWords(payloadBytes int) int { return n.endpoints.MessageWords(payloadBytes) }

// take returns the next n elements of *buf, capped at n, and advances
// *buf past them: Build carves many small slices from one allocation.
func take[T any](buf *[]T, n int) []T {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}
