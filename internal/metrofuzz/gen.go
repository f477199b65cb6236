package metrofuzz

import (
	"fmt"
	"math/rand"

	"metro/internal/fault"
	"metro/internal/topo"
)

// Generate derives a complete Scenario from a seed. The mapping is a
// pure function — same seed, same scenario, on every machine — so an
// ensemble is just a seed range and a repro is just a seed (or the spec
// line, which survives generator evolution).
//
// The distribution is tuned toward adversarial-but-convergent runs:
// roughly half the scenarios carry dynamic faults, loads span burst
// (maximal contention), open-loop Bernoulli and closed-loop stall
// models, and retry/timeout budgets are generous enough that a healthy
// simulator delivers every reachable message — so the delivery oracle
// can treat a reachable-but-undelivered message as a failure rather
// than noise.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	var s Scenario

	// Topology: presets cover the paper's networks; custom specs walk the
	// wider family of valid multibutterflies.
	switch rng.Intn(10) {
	case 0, 1, 2:
		s.Preset = "fig1"
	case 3:
		s.Preset = "fig3"
	case 4:
		s.Preset = "net32"
	case 5:
		s.Preset = "net32r8"
	default:
		s.Custom = genTopology(rng)
	}
	spec, err := s.Spec()
	if err != nil {
		panic(err) // unreachable: presets and genTopology are valid
	}
	t, err := topo.Build(spec)
	if err != nil {
		panic(fmt.Sprintf("metrofuzz: generated topology invalid: %v", err))
	}
	n := spec.Endpoints

	// Network knobs.
	s.Width = []int{4, 8, 8, 8, 16}[rng.Intn(5)]
	s.HeaderWords = []int{0, 0, 0, 1, 2}[rng.Intn(5)]
	s.DataPipe = []int{1, 1, 1, 2}[rng.Intn(4)]
	s.LinkDelay = []int{1, 1, 2}[rng.Intn(3)]
	if rng.Intn(6) == 0 {
		s.CascadeWidth = 2
	} else {
		s.CascadeWidth = 1
	}
	s.FastReclaim = rng.Intn(4) != 0
	s.FirstFree = rng.Intn(5) == 0
	s.Workers = []int{0, 1, 2, 4, 8}[rng.Intn(5)]
	s.NetSeed = 1 + rng.Int63n(1<<31)
	if rng.Intn(4) == 0 && spec.EndpointLinks > 1 {
		s.MaxActiveSenders = 1
	}

	// Traffic. Fault runs carry lighter load and larger retry budgets:
	// the oracle demands delivery for every reachable pair, and the
	// budget is what makes that demand sound under congestion + faults.
	faulty := rng.Intn(2) == 0
	if faulty {
		// First-free selection starves reachable pairs under faults (the
		// oracle excuses it — see checkDelivery), and those runs drain
		// through full retry exhaustion, costing 100k+ cycles for no
		// additional oracle coverage. Keep the ablation to fault-free
		// scenarios; replayed specs may still combine the two.
		s.FirstFree = false
	}
	perEp := 1 + rng.Intn(8)
	msgCap := 300
	if faulty {
		perEp = 1 + rng.Intn(4)
		msgCap = 150
	}
	s.Messages = min(n*perEp, msgCap)
	s.TrafficSeed = 1 + rng.Int63n(1<<31)
	s.PayloadBytes = MinPayloadBytes + rng.Intn(33)
	s.Traffic = []TrafficKind{Burst, Burst, Bernoulli, Stall}[rng.Intn(4)]
	switch s.Traffic {
	case Burst:
		s.InjectCycles = 1
	case Bernoulli:
		s.RatePerMille = 10 + rng.Intn(111)
		// Enough cycles for the expected offer count to exhaust the
		// message budget with slack.
		ic := 2 * s.Messages * 1000 / (n * s.RatePerMille)
		s.InjectCycles = min(max(ic, 100), 5000)
	case Stall:
		s.Outstanding = 1 + rng.Intn(2)
		s.ThinkMax = rng.Intn(61)
		s.InjectCycles = 300 + rng.Intn(1200)
	}
	if faulty {
		s.RetryLimit = 200 + rng.Intn(301)
		s.ListenTimeout = 250 + rng.Intn(250)
	} else {
		s.RetryLimit = 60 + rng.Intn(341)
		s.ListenTimeout = 150 + rng.Intn(250)
	}

	if faulty {
		s.Faults = genFaults(rng, t, uint64(s.InjectCycles))
	}
	return s
}

// genTopology constructs a random valid multistage spec. With radix
// logs r_s, dilation logs d_s (d of the final stage 0) and inputs
// i_s = 2^(r_s+d_s), the wire-conservation chain of topo.Validate holds
// by construction: each stage consumes exactly the wires the previous
// one produced, and the final stage delivers EndpointLinks wires per
// endpoint.
func genTopology(rng *rand.Rand) topo.Spec {
	nLog := 2 + rng.Intn(4) // 4..32 endpoints
	spec := topo.Spec{
		Endpoints:     1 << nLog,
		EndpointLinks: 1 + rng.Intn(2),
	}
	// Split nLog into per-stage radix logs of 1..3 (radix 2..8).
	var radixLogs []int
	for rem := nLog; rem > 0; {
		r := 1 + rng.Intn(min(3, rem))
		radixLogs = append(radixLogs, r)
		rem -= r
	}
	for i, r := range radixLogs {
		d := 0
		if i < len(radixLogs)-1 && rng.Intn(2) == 0 {
			d = 1 // dilation-2 stage: the multipath ingredient
		}
		spec.Stages = append(spec.Stages, topo.StageSpec{
			Inputs:   1 << (r + d),
			Radix:    1 << r,
			Dilation: 1 << d,
		})
	}
	if rng.Intn(4) == 0 {
		spec.Wiring = topo.WiringRandom
		spec.Seed = 1 + rng.Int63n(1<<31)
	}
	return spec
}

// genFaults schedules 1..3 distinct faults inside the fault window:
// injection through drain. LinkStuckBit is deliberately absent — an
// 8-bit CRC has a 1/256 collision probability per corrupted attempt, so
// stuck-bit ensembles would produce rare-but-legitimate silent
// corruption that the payload oracle (correctly) flags; the stuck-at
// behaviour keeps its own deterministic coverage in internal/fault
// tests and replay-only specs.
func genFaults(rng *rand.Rand, t *topo.Topology, injectCycles uint64) fault.Plan {
	spec := t.Spec
	window := injectCycles + 200
	count := 1 + rng.Intn(3)
	seen := map[[4]int]bool{}
	var plan fault.Plan
	for len(plan) < count {
		e := fault.Event{At: uint64(rng.Int63n(int64(window)))}
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // router loss
			e.Kind = fault.RouterKill
			e.Stage = rng.Intn(len(spec.Stages))
			e.Index = rng.Intn(t.RoutersPerStage[e.Stage])
		case 4, 5, 6: // inter-stage link loss
			e.Kind = fault.LinkKill
			e.Stage = rng.Intn(len(spec.Stages))
			e.Index = rng.Intn(t.RoutersPerStage[e.Stage])
			e.Port = rng.Intn(spec.Stages[e.Stage].Outputs())
		case 7, 8: // scan-style port disable
			e.Kind = fault.PortDisable
			e.Stage = rng.Intn(len(spec.Stages))
			e.Index = rng.Intn(t.RoutersPerStage[e.Stage])
			e.Port = rng.Intn(spec.Stages[e.Stage].Outputs())
		case 9: // injection link loss
			e.Kind = fault.LinkKill
			e.Stage = -1
			e.Index = rng.Intn(spec.Endpoints)
			e.Port = rng.Intn(spec.EndpointLinks)
		}
		key := [4]int{int(e.Kind), e.Stage, e.Index, e.Port}
		if seen[key] {
			continue
		}
		seen[key] = true
		plan = append(plan, e)
	}
	// The injector fires events in slice order and expects non-decreasing
	// At cycles.
	for i := 1; i < len(plan); i++ {
		for j := i; j > 0 && plan[j].At < plan[j-1].At; j-- {
			plan[j], plan[j-1] = plan[j-1], plan[j]
		}
	}
	return plan
}
