package metrofuzz

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"

	"metro/internal/clock"
	"metro/internal/fault"
	"metro/internal/netsim"
	"metro/internal/nic"
	"metro/internal/telemetry"
	"metro/internal/topo"
)

// OracleNames lists the oracle battery in the order Run applies it.
var OracleNames = []string{
	"conservation", "delivery", "payload", "progress", "invariants", "differential", "kernel",
}

// ArmedOracles lists, in OracleNames order, the oracles Run applies to s:
// the differential when s asks for parallel workers, the kernel oracle
// when kernel (Hooks.KernelOracle) is set, and every other one always.
func ArmedOracles(s Scenario, kernel bool) []string {
	out := make([]string, 0, len(OracleNames))
	for _, o := range OracleNames {
		if (o == "differential" && s.Workers <= 0) || (o == "kernel" && !kernel) {
			continue
		}
		out = append(out, o)
	}
	return out
}

// Hooks are the harness's self-test seams: each one injects a
// simulator-bug-shaped defect without touching simulator source, so
// tests can prove every oracle actually fires (and the shrinker
// actually shrinks). All hooks apply identically to every leg — they
// model bugs in the system under test, which all legs share.
type Hooks struct {
	// Mutate runs after each leg's network is built and before it runs
	// (e.g. install a link corruptor to fake a routing-layer bug).
	Mutate func(*netsim.Network)
	// TamperDeliver rewrites destination-side deliveries before the
	// harness records them (a delivery-path bug).
	TamperDeliver func(dest int, payload []byte, intact bool) ([]byte, bool)
	// DropResult suppresses completion records (a lost-completion bug).
	DropResult func(nic.Result) bool
	// Recorder, when set, attaches the telemetry flight recorder to the
	// primary leg — the leg the oracles audit — so any
	// scenario, including a shrunken repro, can be replayed with full
	// telemetry. A Recorder wires into at most one network build, so
	// Hooks carrying one must be used for exactly one Run.
	Recorder *telemetry.Recorder
	// EngineMetrics, when set, attaches operational gauges
	// (cycles-per-second, step time, kernel shape — see
	// clock.EngineMetrics) to every leg's engine. Unlike Recorder it is
	// safe to share across legs and Runs: sampling state lives in each
	// engine, and the gauges are atomic last-writer-wins cells meant as
	// a live load signal, not a per-run record.
	EngineMetrics *clock.EngineMetrics
	// Progress, when set, observes the run between engine steps: every
	// ProgressPeriod cycles (and once when a leg finishes) it receives
	// the current cycle and the running offer/completion/delivery
	// counts of the primary leg. Returning false cancels the
	// run — runLeg stops stepping, Run records a single "canceled"
	// failure and sets Report.Canceled. The hook runs on the driving
	// goroutine, never inside Eval, so it may block or do I/O
	// (metroserve streams it over SSE and wires cancellation to a
	// context deadline). Differential legs replay the primary leg's
	// fixed cycle span; they invoke the hook for cancellation polling
	// only, with reporting counts from the leg under audit.
	Progress func(cycle uint64, offered, completed, delivered int) bool
	// ProgressPeriod is the cycle period of Progress callbacks; 0
	// selects DefaultProgressPeriod.
	ProgressPeriod uint64
	// KernelOracle enables the kernel-vs-reference differential leg:
	// the scenario re-runs on the per-component reference stepper
	// (netsim.Reference) for exactly the primary leg's cycle span, and
	// the compiled kernel's result and delivery streams must match it
	// bit for bit. Unlike the fields above it arms an oracle rather
	// than injecting a defect. The other hooks apply to the reference
	// leg like any other, so self-test defects stay symmetric.
	KernelOracle bool
}

// DefaultProgressPeriod is the Progress callback period when
// Hooks.ProgressPeriod is 0: frequent enough for live streaming and
// sub-millisecond cancellation, rare enough to stay off the profile.
const DefaultProgressPeriod = 256

// ErrCanceled is returned (wrapped) by a leg whose Progress hook asked
// to stop; Run converts it into a Canceled report.
var ErrCanceled = errors.New("metrofuzz: run canceled by Progress hook")

// Failure is one oracle violation.
type Failure struct {
	Oracle string
	Detail string
}

func (f Failure) String() string { return f.Oracle + ": " + f.Detail }

// Report is the outcome of running one scenario under the full oracle
// battery.
type Report struct {
	Scenario    Scenario
	Spec        string // EncodeSpec(Scenario), the replay currency
	Cycles      uint64 // cycles the primary leg executed
	Offered     int
	Delivered   int
	Duplicates  int // intact deliveries beyond the first, per message
	FaultsFired int
	Failures    []Failure
	// Canceled marks a run stopped early by the Progress hook (deadline
	// or client cancellation) rather than by an oracle verdict; the
	// single "canceled" failure is bookkeeping, not a simulator bug.
	Canceled bool
}

// Failed reports whether any oracle fired.
func (r *Report) Failed() bool { return len(r.Failures) > 0 }

// Repro returns the one-line reproduction command.
func (r *Report) Repro() string { return "metrofuzz -replay '" + r.Spec + "'" }

func (r *Report) fail(oracle, format string, args ...any) {
	r.Failures = append(r.Failures, Failure{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
}

// Run executes a scenario under the oracle battery: the primary leg
// first — the compiled kernel stepped inline (Workers 1, so the engine
// never partitions it whatever the network's size), with per-cycle
// invariant checks and the behavioural oracles — then, when the scenario
// requests workers, the same kernel partitioned across them, and, when
// h.KernelOracle is set, the reference stepper, inline too. Each extra
// leg's result and delivery streams must match the primary leg bit for
// bit.
func Run(s Scenario, h Hooks) *Report {
	r := &Report{Scenario: s, Spec: EncodeSpec(s)}
	if err := s.Validate(); err != nil {
		r.fail("spec", "%v", err)
		return r
	}
	primary, err := runLeg(s, h, legConfig{workers: 1, checkInv: true})
	if err != nil {
		r.legFailed("", err)
		return r
	}
	r.Cycles = primary.cycles
	r.Offered = len(primary.offers)
	r.FaultsFired = len(primary.fired)
	if primary.invariantErr != "" {
		r.fail("invariants", "%s", primary.invariantErr)
	}
	if primary.progressErr != "" {
		r.fail("progress", "%s", primary.progressErr)
	}
	r.checkConservation(primary)
	r.checkDelivery(s, primary)
	r.checkPayload(s, h, primary)

	if s.Workers > 0 {
		par, err := runLeg(s, h, legConfig{workers: s.Workers, fixedCycles: primary.cycles})
		if err != nil {
			r.legFailed("parallel leg: ", err)
			return r
		}
		r.diffLegs("differential", "parallel", primary, par)
	}
	if h.KernelOracle {
		ref, err := runLeg(s, h, legConfig{workers: 1, reference: true, fixedCycles: primary.cycles})
		if err != nil {
			r.legFailed("reference leg: ", err)
			return r
		}
		r.diffLegs("kernel", "reference", primary, ref)
	}
	return r
}

// legFailed records a leg that did not run to completion: canceled by
// the Progress hook, or unbuildable.
func (r *Report) legFailed(prefix string, err error) {
	if errors.Is(err, ErrCanceled) {
		r.Canceled = true
		r.fail("canceled", "%s%v", prefix, err)
	} else {
		r.fail("build", "%s%v", prefix, err)
	}
}

// --- leg execution -----------------------------------------------------

// delivery is one destination-side delivery as the harness observed it.
type delivery struct {
	Dest    int
	Payload []byte
	Intact  bool
}

// offer is one message the injector handed to an endpoint.
type offer struct {
	ID        uint32
	Src, Dest int
	Payload   []byte
	At        uint64
}

// legOut is everything one engine leg produced.
type legOut struct {
	topo         *topo.Topology // the leg network's, for the reachability oracle
	offers       []offer
	results      []nic.Result
	deliveries   []delivery
	fired        []fault.Event
	cycles       uint64
	progressErr  string
	invariantErr string
}

// legConfig selects how one leg executes: the compiled kernel at a
// worker count or the reference stepper, whether the per-cycle invariant
// oracle runs (primary leg only — the other legs are compared against it
// instead), and an optional fixed cycle span (differential legs mirror
// the primary leg's span; 0 means run to quiescence under the progress
// watchdog).
type legConfig struct {
	workers     int
	reference   bool
	checkInv    bool
	fixedCycles uint64
}

// runLeg builds and runs one network under the given leg configuration.
func runLeg(s Scenario, h Hooks, lc legConfig) (*legOut, error) {
	spec, err := s.Spec()
	if err != nil {
		return nil, err
	}
	// Every offer yields one result and, fault-free, one delivery: the
	// message budget sizes all three up front.
	leg := &legOut{
		offers:     make([]offer, 0, s.Messages),
		results:    make([]nic.Result, 0, s.Messages),
		deliveries: make([]delivery, 0, s.Messages),
	}
	delivered := 0 // running count of leg.results with Delivered set
	inj := &injector{s: s, leg: leg, rng: rand.New(rand.NewSource(s.TrafficSeed))}
	p := netsim.Params{
		Spec:               spec,
		Width:              s.Width,
		HeaderWords:        s.HeaderWords,
		DataPipe:           s.DataPipe,
		LinkDelay:          s.LinkDelay,
		CascadeWidth:       s.CascadeWidth,
		FastReclaim:        s.FastReclaim,
		FirstFreeSelection: s.FirstFree,
		Seed:               s.NetSeed,
		MaxActiveSenders:   s.MaxActiveSenders,
		RetryLimit:         s.RetryLimit,
		ListenTimeout:      uint64(s.ListenTimeout),
		Workers:            lc.workers,
		EngineMetrics:      h.EngineMetrics,
		OnResult: func(res nic.Result) {
			inj.onResult(res)
			if h.DropResult != nil && h.DropResult(res) {
				return
			}
			leg.results = append(leg.results, res)
			if res.Delivered {
				delivered++
			}
		},
		// The payload is the leg's to keep: netsim unpacks each delivery
		// afresh.
		OnDeliver: func(dest int, payload []byte, intact bool) {
			if h.TamperDeliver != nil {
				payload, intact = h.TamperDeliver(dest, payload, intact)
			}
			leg.deliveries = append(leg.deliveries, delivery{Dest: dest, Payload: payload, Intact: intact})
		},
	}
	// The recorder observes the primary leg only (checkInv marks it): a
	// recorder wires into one build, and the other legs are audited
	// against the primary one rather than traced themselves.
	if h.Recorder != nil && lc.checkInv {
		p.Recorder = h.Recorder
	}
	n, err := netsim.Build(p)
	if err != nil {
		return nil, err
	}
	defer n.Close()
	leg.topo = n.Topo
	if lc.reference {
		n.Engine.SetKernel(netsim.NewReference(n))
	}
	if h.Mutate != nil {
		h.Mutate(n)
	}
	inj.bind(n)
	finj := fault.NewInjector(n, s.Faults)

	period := h.ProgressPeriod
	if period == 0 {
		period = DefaultProgressPeriod
	}
	// observe reports the leg's running counts to the Progress hook and
	// returns false when the hook asks to cancel. Reporting is
	// per-leg: the primary leg's stream is what metroserve shows
	// live; differential legs call it mainly for cancellation polling.
	observe := func(cycle uint64) bool {
		if h.Progress == nil {
			return true
		}
		return h.Progress(cycle, len(leg.offers), len(leg.results), delivered)
	}

	if lc.fixedCycles > 0 {
		for n.Engine.Cycle() < lc.fixedCycles {
			if n.Engine.Cycle()%period == 0 && !observe(n.Engine.Cycle()) {
				return nil, fmt.Errorf("cycle %d: %w", n.Engine.Cycle(), ErrCanceled)
			}
			n.Engine.Step()
		}
		observe(n.Engine.Cycle())
		leg.cycles = n.Engine.Cycle()
		leg.fired = finj.Fired()
		return leg, nil
	}

	// Progress budget: an endpoint retires its current message within
	// RetryLimit+1 attempts, each bounded by the message span plus the
	// reply watchdog plus the teardown gap. If the network is done
	// injecting and no offer/result/delivery/fault lands for a full
	// worst-case message lifetime, something is livelocked (or a quiet
	// condition is unreachable — a deadlock); both are oracle failures.
	attempt := uint64(n.MessageWords(s.PayloadBytes) + s.ListenTimeout + s.DataPipe + 2 + 30)
	watchdog := uint64(s.RetryLimit+1) * attempt
	hardCap := uint64(s.InjectCycles) + uint64(s.Messages+10)*watchdog
	if hardCap > 5_000_000 {
		hardCap = 5_000_000
	}
	lastEvent := uint64(0)
	lastCount := 0
	for {
		cycle := n.Engine.Cycle()
		if cycle%period == 0 && !observe(cycle) {
			return nil, fmt.Errorf("cycle %d: %w", cycle, ErrCanceled)
		}
		if inj.done(cycle) && n.Quiet() {
			break
		}
		if cycle >= hardCap {
			leg.progressErr = fmt.Sprintf("network not quiet after hard cap of %d cycles", hardCap)
			break
		}
		if inj.done(cycle) && cycle-lastEvent > watchdog {
			leg.progressErr = fmt.Sprintf(
				"no progress for %d cycles after injection ended (cycle %d, %d results of %d offers)",
				watchdog, cycle, len(leg.results), len(leg.offers))
			break
		}
		n.Engine.Step()
		if c := len(leg.offers) + len(leg.results) + len(leg.deliveries) + len(finj.Fired()); c != lastCount {
			lastCount = c
			lastEvent = n.Engine.Cycle()
		}
		if lc.checkInv {
			if msg := checkAllInvariants(n); msg != "" && leg.invariantErr == "" {
				leg.invariantErr = fmt.Sprintf("cycle %d: %s", n.Engine.Cycle(), msg)
				break
			}
		}
	}
	observe(n.Engine.Cycle())
	leg.cycles = n.Engine.Cycle()
	leg.fired = finj.Fired()
	return leg, nil
}

// checkAllInvariants audits every router lane, returning the first
// violation; a cascaded network's names the lane.
func checkAllInvariants(n *netsim.Network) string {
	for s := range n.Routers {
		for _, lanes := range n.Routers[s] {
			for k, r := range lanes {
				if err := r.CheckInvariants(); err != nil {
					if len(lanes) == 1 {
						return err.Error()
					}
					return fmt.Sprintf("lane %d: %v", k, err)
				}
			}
		}
	}
	return ""
}

// --- the injector ------------------------------------------------------

// injector is the harness's own traffic driver. It registers with the
// engine after netsim's collector, so it runs in the serialized
// epilogue with completions already replayed in deterministic order —
// its random stream is consumed identically in every leg.
type injector struct {
	s   Scenario
	net *netsim.Network
	rng *rand.Rand
	leg *legOut

	remaining   int
	nextID      uint32
	burstDone   bool
	outstanding []int
	think       []int
}

func (i *injector) bind(n *netsim.Network) {
	i.net = n
	i.remaining = i.s.Messages
	i.outstanding = make([]int, len(n.Endpoints))
	i.think = make([]int, len(n.Endpoints))
	n.Engine.Add(i)
}

// done reports whether the schedule will offer no further messages.
func (i *injector) done(cycle uint64) bool {
	if i.remaining == 0 {
		return true
	}
	if i.s.Traffic == Burst {
		return i.burstDone
	}
	return cycle >= uint64(i.s.InjectCycles)
}

// Eval implements clock.Component: advance the traffic schedule.
//
//metrovet:truncate InjectCycles is validated into [1,20000] by Scenario.Validate
func (i *injector) Eval(cycle uint64) {
	if i.remaining == 0 {
		return
	}
	switch i.s.Traffic {
	case Burst:
		if i.burstDone {
			return
		}
		i.burstDone = true
		for i.remaining > 0 {
			i.offerFrom(i.rng.Intn(len(i.outstanding)), cycle)
		}
	case Bernoulli:
		if cycle >= uint64(i.s.InjectCycles) {
			return
		}
		for e := range i.outstanding {
			if i.remaining > 0 && i.rng.Intn(1000) < i.s.RatePerMille {
				i.offerFrom(e, cycle)
			}
		}
	case Stall:
		if cycle >= uint64(i.s.InjectCycles) {
			return
		}
		for e := range i.outstanding {
			if i.think[e] > 0 {
				i.think[e]--
				continue
			}
			for i.outstanding[e] < i.s.Outstanding && i.remaining > 0 {
				i.offerFrom(e, cycle)
				i.outstanding[e]++
			}
		}
	}
}

// onResult feeds completions back into the closed-loop schedule. It is
// called from the collector's deterministic replay, before the
// injector's own Eval in the same epilogue.
func (i *injector) onResult(r nic.Result) {
	if i.s.Traffic != Stall {
		return
	}
	src := r.Msg.Src
	if i.outstanding[src] > 0 {
		i.outstanding[src]--
	}
	if i.s.ThinkMax > 0 {
		i.think[src] = i.rng.Intn(i.s.ThinkMax + 1)
	}
}

// offerFrom creates, tags and offers one message from src.
//
//metrovet:shared the injector registers via Engine.Add, so it runs in the serialized epilogue after every endpoint has evaluated
func (i *injector) offerFrom(src int, cycle uint64) {
	n := len(i.outstanding)
	dest := i.rng.Intn(n - 1)
	if dest >= src {
		dest++
	}
	i.nextID++
	payload := EncodePayload(i.nextID, src, dest, i.s.PayloadBytes)
	i.net.Send(src, dest, payload)
	//metrovet:alloc harness ledger entry, bounded by the message budget
	i.leg.offers = append(i.leg.offers, offer{
		ID: i.nextID, Src: src, Dest: dest, Payload: payload, At: cycle,
	})
	i.remaining--
}

// --- oracles -----------------------------------------------------------

// checkConservation: every offered message yields exactly one completion
// Result carrying the offered identity — no losses, no duplicates, no
// fabrications.
func (r *Report) checkConservation(leg *legOut) {
	byID := make(map[uint32]offer, len(leg.offers))
	for _, o := range leg.offers {
		byID[o.ID] = o
	}
	seen := make(map[uint32]int)
	for i, res := range leg.results {
		id, src, dest, ok := DecodePayload(res.Msg.Payload)
		if !ok {
			r.fail("conservation", "result %d carries an unparseable payload (msg %d)", i, res.Msg.ID)
			continue
		}
		o, known := byID[id]
		if !known {
			r.fail("conservation", "result %d reports message %d that was never offered", i, id)
			continue
		}
		if res.Msg.Src != o.Src || res.Msg.Dest != o.Dest || src != o.Src || dest != o.Dest {
			r.fail("conservation", "result for message %d has src/dest %d->%d, offered %d->%d",
				id, res.Msg.Src, res.Msg.Dest, o.Src, o.Dest)
		}
		seen[id]++
	}
	for _, o := range leg.offers {
		switch c := seen[o.ID]; {
		case c == 0:
			r.fail("conservation", "message %d (%d->%d, offered cycle %d) never completed",
				o.ID, o.Src, o.Dest, o.At)
		case c > 1:
			r.fail("conservation", "message %d completed %d times", o.ID, c)
		}
	}
}

// checkDelivery: a Delivered result implies at least one intact arrival;
// arrivals never exceed attempts; a message whose destination stays
// reachable under the fired fault set must be delivered; and in a
// fault-free scenario every message arrives exactly once (duplicates
// come only from fault-corrupted acknowledgments).
func (r *Report) checkDelivery(s Scenario, leg *legOut) {
	intact := make(map[uint32]int)
	for _, d := range leg.deliveries {
		if !d.Intact {
			continue
		}
		if id, _, _, ok := DecodePayload(d.Payload); ok {
			intact[id]++
		}
	}
	view := newFaultView(leg)
	faulty := len(s.Faults) > 0
	// Structural reachability promises delivery only under stochastic
	// path selection: the paper's fault-avoidance argument (Section 4)
	// is that retries resample paths at random, so any surviving path is
	// eventually found. The first-free ablation deliberately removes
	// that resampling — a faulted network may starve a reachable pair
	// forever — so completeness is not checked for that combination.
	demandComplete := !(s.FirstFree && faulty)
	for _, res := range leg.results {
		id, _, _, ok := DecodePayload(res.Msg.Payload)
		if !ok {
			continue // conservation already flagged it
		}
		k := intact[id]
		if res.Delivered {
			r.Delivered++
			if k == 0 {
				r.fail("delivery", "message %d acknowledged as delivered but never arrived intact", id)
			}
			if k > 1 {
				r.Duplicates += k - 1
			}
		}
		if k > res.Retries+1 {
			r.fail("delivery", "message %d arrived intact %d times in %d attempts",
				id, k, res.Retries+1)
		}
		if demandComplete && !res.Delivered && view.reachable(res.Msg.Src, res.Msg.Dest) {
			r.fail("delivery",
				"message %d (%d->%d) undelivered after %d retries though its destination is reachable",
				id, res.Msg.Src, res.Msg.Dest, res.Retries)
		}
		if !faulty {
			if !res.Delivered {
				r.fail("delivery", "fault-free run failed to deliver message %d (%d->%d)",
					id, res.Msg.Src, res.Msg.Dest)
			}
			if k > 1 {
				r.fail("delivery", "fault-free run delivered message %d %d times", id, k)
			}
		}
	}
}

// checkPayload: every intact delivery decodes to an offered message,
// arrived at its own destination, byte-for-byte equal to what the source
// offered; fault-free runs see no corrupt deliveries at all. This is the
// end-to-end data-integrity oracle, independent of the network's CRC.
func (r *Report) checkPayload(s Scenario, h Hooks, leg *legOut) {
	byID := make(map[uint32]offer, len(leg.offers))
	for _, o := range leg.offers {
		byID[o.ID] = o
	}
	faulty := len(s.Faults) > 0
	for i, d := range leg.deliveries {
		if !d.Intact {
			if !faulty && h.Mutate == nil && h.TamperDeliver == nil {
				r.fail("payload", "delivery %d at endpoint %d corrupt in a fault-free run", i, d.Dest)
			}
			continue
		}
		id, src, dest, ok := DecodePayload(d.Payload)
		if !ok {
			r.fail("payload", "intact delivery %d at endpoint %d does not decode", i, d.Dest)
			continue
		}
		o, known := byID[id]
		if !known {
			r.fail("payload", "intact delivery %d carries unknown message %d", i, id)
			continue
		}
		if dest != d.Dest || o.Dest != d.Dest || o.Src != src {
			r.fail("payload", "message %d (%d->%d) delivered to endpoint %d", id, o.Src, o.Dest, d.Dest)
			continue
		}
		if len(d.Payload) < len(o.Payload) || !bytes.Equal(d.Payload[:len(o.Payload)], o.Payload) {
			r.fail("payload", "message %d delivered with altered bytes", id)
		}
	}
}

// diffLegs: another leg (the kernel partitioned across workers, or the
// reference stepper) must agree with the primary, serially stepped
// kernel leg bit for bit — same completions, same deliveries, same
// order. oracle names the firing oracle ("differential" or "kernel"),
// legName the other leg in the failure text.
func (r *Report) diffLegs(oracle, legName string, serial, other *legOut) {
	if len(serial.results) != len(other.results) {
		r.fail(oracle, "serial leg completed %d messages, %s leg %d",
			len(serial.results), legName, len(other.results))
	}
	for i := range serial.results {
		if i >= len(other.results) {
			break
		}
		if !reflect.DeepEqual(serial.results[i], other.results[i]) {
			r.fail(oracle, "result %d diverges: serial %+v, %s %+v",
				i, serial.results[i], legName, other.results[i])
			break
		}
	}
	if len(serial.deliveries) != len(other.deliveries) {
		r.fail(oracle, "serial leg observed %d deliveries, %s leg %d",
			len(serial.deliveries), legName, len(other.deliveries))
	}
	for i := range serial.deliveries {
		if i >= len(other.deliveries) {
			break
		}
		a, b := serial.deliveries[i], other.deliveries[i]
		if a.Dest != b.Dest || a.Intact != b.Intact || !bytes.Equal(a.Payload, b.Payload) {
			r.fail(oracle, "delivery %d diverges: serial ep%d intact=%v, %s ep%d intact=%v",
				i, a.Dest, a.Intact, legName, b.Dest, b.Intact)
			break
		}
	}
}

// --- structural reachability under faults ------------------------------

// faultView answers "could this source still reach this destination?"
// against the fault events that actually fired, walking the elaborated
// topology while honouring dead routers, severed links (including
// injection and delivery links) and disabled ports. Stuck-bit links are
// treated as dead too: they may still deliver, so excusing them only
// relaxes the oracle.
type faultView struct {
	t *topo.Topology
	// dead holds the cut elements as topo.Topology.Paths names them:
	// (stage, index, port), stage -1 for an injection link and port -1
	// for a whole router.
	dead map[[3]int]bool
}

func newFaultView(leg *legOut) *faultView {
	v := &faultView{t: leg.topo, dead: map[[3]int]bool{}}
	for _, e := range leg.fired {
		switch e.Kind {
		case fault.RouterKill:
			v.dead[[3]int{e.Stage, e.Index, -1}] = true
		case fault.LinkKill, fault.LinkStuckBit, fault.PortDisable:
			// Stage -1 is endpoint Index's injection link Port.
			v.dead[[3]int{e.Stage, e.Index, e.Port}] = true
		}
	}
	return v
}

func (v *faultView) reachable(src, dest int) bool {
	return v.t.Paths(src, dest, func(stage, index, port int) bool {
		return v.dead[[3]int{stage, index, port}]
	}) > 0
}
