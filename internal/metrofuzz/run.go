package metrofuzz

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

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
	// The result's Msg.Payload is valid until Run returns: the payload
	// buffer is recycled for a later leg.
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
	// Progress, when set, observes the run between engine steps, on the
	// driving goroutine and never inside Eval, so it may block or do I/O
	// (metroserve streams it over SSE and wires cancellation to a context
	// deadline). Its frames follow the primary leg: every ProgressPeriod
	// cycles and once when the leg ends, the cycle and the running
	// offer/completion/delivery counts. A replay only polls, on the same
	// grid and once when its span ends, passing the primary leg's final
	// cycle and counts, so no frame runs backwards. Returning false from
	// a grid call cancels the run: stepping stops, Run records a single
	// "canceled" failure and sets Report.Canceled. A leg's last call only
	// reports; the next leg's first poll is the next chance to stop.
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

// Run executes a scenario under the oracle battery. The primary leg is
// the compiled kernel stepped inline (Workers 1, so the engine never
// partitions it whatever the network's size): the recorder, the per-cycle
// invariants, the Progress frames and the behavioural oracles watch it.
// Each armed replay oracle then re-runs the primary leg's cycle span on
// the leg replayLeg names, whose result and delivery streams must match
// the primary leg's bit for bit.
func Run(s Scenario, h Hooks) *Report {
	r := &Report{Scenario: s, Spec: EncodeSpec(s)}
	if err := s.Validate(); err != nil {
		r.fail("spec", "%v", err)
		return r
	}
	primary, err := runLeg(s, h, legConfig{workers: 1})
	if err != nil {
		r.legFailed("", err)
		return r
	}
	defer primary.release()
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

	for _, oracle := range ArmedOracles(s, h.KernelOracle) {
		lc, ok := replayLeg(oracle, s, primary)
		if !ok {
			continue
		}
		leg, err := runLeg(s, h, lc)
		if err != nil {
			r.legFailed(lc.name+" leg: ", err)
			return r
		}
		r.diffLegs(oracle, lc.name, primary, leg)
		leg.release()
	}
	return r
}

// replayLeg is the leg table: the leg that replays primary's span for a
// replay oracle, or false for an oracle that audits the primary leg
// itself. ArmedOracles decides which oracles run, so it alone decides
// which legs run.
func replayLeg(oracle string, s Scenario, primary *legOut) (legConfig, bool) {
	switch oracle {
	case "differential":
		return legConfig{name: "parallel", workers: s.Workers, primary: primary}, true
	case "kernel":
		return legConfig{name: "reference", workers: 1, reference: true, primary: primary}, true
	}
	return legConfig{}, false
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

// legOut is everything one engine leg produced. Legs recycle through
// legPool: a leg's ledgers and traffic source are what the next leg, in
// this Run or the next, would otherwise allocate again.
type legOut struct {
	topo         *topo.Topology // the leg network's, for the reachability oracle
	offers       []offer        // in ascending ID order: the injector numbers them as it offers
	results      []nic.Result
	deliveries   []delivery
	fired        []fault.Event
	cycles       uint64
	delivered    int // results with Delivered set
	progressErr  string
	invariantErr string

	rng      *rand.Rand // the injector's traffic source
	payloads []byte     // backs every offer's Payload, one after another
	counts   []int32    // the oracles' per-offer tallies (perOffer)
}

// legPool holds released legs. A sync.Pool rather than a free list: the
// collector empties it, so an idle process keeps none of it live.
var legPool sync.Pool

// newLeg returns an empty leg for s whose ledgers and payload buffer hold
// its message budget without growing, and whose traffic source is seeded
// with s.TrafficSeed: Seed on a reused source yields exactly the stream of
// rand.NewSource(seed).
func newLeg(s Scenario) *legOut {
	leg, _ := legPool.Get().(*legOut)
	if leg == nil {
		leg = &legOut{rng: rand.New(rand.NewSource(s.TrafficSeed))}
	} else {
		leg.rng.Seed(s.TrafficSeed)
	}
	leg.offers = slices.Grow(leg.offers, s.Messages)
	leg.results = slices.Grow(leg.results, s.Messages)
	leg.deliveries = slices.Grow(leg.deliveries, s.Messages)
	leg.payloads = slices.Grow(leg.payloads, s.Messages*max(s.PayloadBytes, MinPayloadBytes))
	return leg
}

// release returns the leg to legPool. Its ledgers are cleared first, so a
// pooled leg keeps no payload, result or topology alive.
func (l *legOut) release() {
	clear(l.offers)
	clear(l.results)
	clear(l.deliveries)
	*l = legOut{
		offers: l.offers[:0], results: l.results[:0], deliveries: l.deliveries[:0],
		rng: l.rng, payloads: l.payloads[:0], counts: l.counts,
	}
	legPool.Put(l)
}

// perOffer returns a zeroed tally with one entry per offer. It reuses one
// buffer, so each oracle is done with its tally before the next asks.
func (l *legOut) perOffer() []int32 {
	l.counts = slices.Grow(l.counts[:0], len(l.offers))[:len(l.offers)]
	clear(l.counts)
	return l.counts
}

// offerIndex returns the index in leg.offers of the offer with the given
// ID, or -1 when no offer carries it.
func (l *legOut) offerIndex(id uint32) int {
	i, ok := slices.BinarySearchFunc(l.offers, id, func(o offer, id uint32) int { return cmp.Compare(o.ID, id) })
	if !ok {
		return -1
	}
	return i
}

// legConfig selects how one leg executes: the compiled kernel at a
// worker count or the reference stepper. A replay carries the finished
// primary leg, whose cycle span it steps and whose final counts its
// Progress polls report; the primary leg carries none.
type legConfig struct {
	name      string // the leg in a replay oracle's failure text
	workers   int
	reference bool
	primary   *legOut
}

// runLeg builds and runs one network under the given leg configuration.
func runLeg(s Scenario, h Hooks, lc legConfig) (*legOut, error) {
	spec, err := s.Spec()
	if err != nil {
		return nil, err
	}
	// Every offer yields one result and, fault-free, one delivery: the
	// message budget sizes all three up front.
	leg := newLeg(s)
	inj := &injector{s: s, leg: leg, rng: leg.rng}
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
				leg.delivered++
			}
		},
		// The payload is the leg's to keep: each delivery's bytes are
		// its own, carved with a capped capacity from a chunk the
		// endpoints share.
		OnDeliver: func(dest int, payload []byte, intact bool) {
			if h.TamperDeliver != nil {
				payload, intact = h.TamperDeliver(dest, payload, intact)
			}
			leg.deliveries = append(leg.deliveries, delivery{Dest: dest, Payload: payload, Intact: intact})
		},
	}
	// A recorder wires into one build: the primary leg's. Replays are
	// diffed against it rather than traced themselves.
	replay := lc.primary != nil
	if !replay {
		p.Recorder = h.Recorder
	}
	n, err := netsim.Build(p)
	if err != nil {
		leg.release()
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

	period := cmp.Or(h.ProgressPeriod, DefaultProgressPeriod)
	// shown is the leg the Progress hook reports: the primary one, whose
	// final cycle and counts a replay passes on every poll.
	shown := cmp.Or(lc.primary, leg)
	observe := func(cycle uint64) bool {
		if replay {
			cycle = shown.cycles
		}
		return h.Progress == nil || h.Progress(cycle, len(shown.offers), len(shown.results), shown.delivered)
	}

	// A replay steps exactly the primary leg's span. The primary leg runs
	// until the network is quiet once injection has ended, under a
	// progress budget: an endpoint retires its current message within
	// RetryLimit+1 attempts, each bounded by the message span plus the
	// reply watchdog plus the teardown gap. If the network is done
	// injecting and no offer/result/delivery/fault lands for a full
	// worst-case message lifetime, something is livelocked (or a quiet
	// condition is unreachable — a deadlock); both are oracle failures.
	attempt := uint64(n.MessageWords(s.PayloadBytes) + s.ListenTimeout + s.DataPipe + 2 + 30)
	watchdog := uint64(s.RetryLimit+1) * attempt
	hardCap := min(uint64(s.InjectCycles)+uint64(s.Messages+10)*watchdog, 5_000_000)
	lastEvent, lastCount := uint64(0), 0
	for {
		cycle := n.Engine.Cycle()
		if replay && cycle >= shown.cycles {
			break
		}
		if cycle%period == 0 && !observe(cycle) {
			leg.release()
			return nil, fmt.Errorf("cycle %d: %w", cycle, ErrCanceled)
		}
		if !replay {
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
		}
		n.Engine.Step()
		if replay {
			continue
		}
		if c := len(leg.offers) + len(leg.results) + len(leg.deliveries) + len(finj.Fired()); c != lastCount {
			lastCount = c
			lastEvent = n.Engine.Cycle()
		}
		if msg := checkAllInvariants(n); msg != "" {
			leg.invariantErr = fmt.Sprintf("cycle %d: %s", n.Engine.Cycle(), msg)
			break
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
	at := len(i.leg.payloads)
	i.leg.payloads = AppendPayload(i.leg.payloads, i.nextID, src, dest, i.s.PayloadBytes)
	payload := i.leg.payloads[at:len(i.leg.payloads):len(i.leg.payloads)]
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
	seen := leg.perOffer() // completions per offer
	for i, res := range leg.results {
		id, src, dest, ok := DecodePayload(res.Msg.Payload)
		if !ok {
			r.fail("conservation", "result %d carries an unparseable payload (msg %d)", i, res.Msg.ID)
			continue
		}
		k := leg.offerIndex(id)
		if k < 0 {
			r.fail("conservation", "result %d reports message %d that was never offered", i, id)
			continue
		}
		o := leg.offers[k]
		if res.Msg.Src != o.Src || res.Msg.Dest != o.Dest || src != o.Src || dest != o.Dest {
			r.fail("conservation", "result for message %d has src/dest %d->%d, offered %d->%d",
				id, res.Msg.Src, res.Msg.Dest, o.Src, o.Dest)
		}
		seen[k]++
	}
	for k, o := range leg.offers {
		switch c := seen[k]; {
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
	intact := leg.perOffer() // intact arrivals per offer
	for _, d := range leg.deliveries {
		if !d.Intact {
			continue
		}
		if id, _, _, ok := DecodePayload(d.Payload); ok {
			if k := leg.offerIndex(id); k >= 0 {
				intact[k]++
			}
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
		var k int
		if i := leg.offerIndex(id); i >= 0 {
			k = int(intact[i])
		} else {
			k = leg.intactArrivals(id) // conservation flagged it; count as before
		}
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
		k := leg.offerIndex(id)
		if k < 0 {
			r.fail("payload", "intact delivery %d carries unknown message %d", i, id)
			continue
		}
		o := leg.offers[k]
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
		if !sameResult(&serial.results[i], &other.results[i]) {
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

// sameResult reports whether a and b are equal as reflect.DeepEqual sees
// them, field by field and without boxing either: a nil Payload or Reply
// differs from an empty one. TestSameResultMatchesDeepEqual walks every
// field of nic.Result, so a field added there fails until it is compared
// here.
func sameResult(a, b *nic.Result) bool {
	return a.Msg.ID == b.Msg.ID && a.Msg.Src == b.Msg.Src && a.Msg.Dest == b.Msg.Dest &&
		sameBytes(a.Msg.Payload, b.Msg.Payload) && a.Msg.Created == b.Msg.Created &&
		a.Delivered == b.Delivered && sameBytes(a.Reply, b.Reply) &&
		a.Retries == b.Retries && a.BlockedFast == b.BlockedFast &&
		a.BlockedDetailed == b.BlockedDetailed && a.LastBlockedStage == b.LastBlockedStage &&
		a.ChecksumFailures == b.ChecksumFailures && a.Timeouts == b.Timeouts &&
		a.SuspectStage == b.SuspectStage && a.Injected == b.Injected && a.Done == b.Done
}

// sameBytes is reflect.DeepEqual on two byte slices.
func sameBytes(a, b []byte) bool { return (a == nil) == (b == nil) && bytes.Equal(a, b) }

// intactArrivals counts the intact deliveries that decode to id. The
// delivery oracle needs it only for a result naming a message nobody
// offered, so it scans rather than keeping a per-ID table.
func (l *legOut) intactArrivals(id uint32) int {
	n := 0
	for _, d := range l.deliveries {
		if d.Intact {
			if got, _, _, ok := DecodePayload(d.Payload); ok && got == id {
				n++
			}
		}
	}
	return n
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
