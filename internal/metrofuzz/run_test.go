package metrofuzz

import (
	"strings"
	"testing"

	"metro/internal/fault"
	"metro/internal/netsim"
	"metro/internal/nic"
	"metro/internal/telemetry"
	"metro/internal/topo"
	"metro/internal/word"
)

// tinyScenario is a fast, fully deterministic 4-endpoint burst used by
// the self-test (mutation) cases: small retry budget so injected bugs
// fail in a few thousand cycles, parallel leg enabled so the
// differential machinery is exercised too.
func tinyScenario() Scenario {
	return Scenario{
		Custom:        tinySpec(),
		Width:         8,
		DataPipe:      1,
		LinkDelay:     1,
		CascadeWidth:  1,
		FastReclaim:   true,
		NetSeed:       7,
		RetryLimit:    10,
		ListenTimeout: 120,
		Workers:       4,
		Traffic:       Burst,
		TrafficSeed:   11,
		Messages:      8,
		PayloadBytes:  12,
		InjectCycles:  1,
	}
}

// deliveryBug fakes a routing-layer defect without touching simulator
// source: every forward word leaving endpoint 0's injection links has
// one payload bit flipped, so endpoint 0 can never complete a send even
// though every destination stays structurally reachable. The delivery
// oracle must flag each of its messages.
func deliveryBug() Hooks {
	return Hooks{Mutate: func(n *netsim.Network) {
		for k := range n.Topo.Spec.EndpointLinks {
			n.InjectLink(0, k).SetCorruptor(func(w word.Word) word.Word {
				w.Payload ^= 2
				return w
			}, nil)
		}
	}}
}

// TestEnsembleOraclesClean is the harness's standing gate: a window of
// generated scenarios must pass the whole oracle battery on a clean
// tree. A failure here is a real simulator bug (or an unsound oracle)
// — the error message carries the replay line either way.
func TestEnsembleOraclesClean(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 12
	}
	if raceEnabled {
		n = 6
	}
	for seed := int64(0); seed < int64(n); seed++ {
		rep := Run(Generate(seed), Hooks{})
		for _, f := range rep.Failures {
			t.Errorf("seed %d: %s", seed, f)
		}
		if rep.Failed() {
			t.Fatalf("seed %d failed; reproduce with: %s", seed, rep.Repro())
		}
		if rep.Offered == 0 {
			t.Fatalf("seed %d offered no messages; the generator is miscalibrated", seed)
		}
	}
}

// TestParallelDifferentialWorkers runs the same congested scenario at
// workers 0, 1 and 4: the acceptance gate for the serial/parallel
// differential oracle, and the scenario the CI race job leans on.
func TestParallelDifferentialWorkers(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		s := Scenario{
			Preset:        "fig1",
			Width:         8,
			DataPipe:      1,
			LinkDelay:     1,
			CascadeWidth:  1,
			FastReclaim:   true,
			NetSeed:       21,
			RetryLimit:    100,
			ListenTimeout: 200,
			Workers:       workers,
			Traffic:       Burst,
			TrafficSeed:   31,
			Messages:      48,
			PayloadBytes:  16,
			InjectCycles:  1,
		}
		rep := Run(s, Hooks{})
		for _, f := range rep.Failures {
			t.Errorf("workers=%d: %s", workers, f)
		}
		if rep.Delivered != rep.Offered {
			t.Errorf("workers=%d: delivered %d of %d in a fault-free burst",
				workers, rep.Delivered, rep.Offered)
		}
	}
}

// TestInjectedDeliveryBugCaught: the mutation gate. A corrupted
// injection path must trip the delivery oracle (reachable destination,
// message never delivered) — proof the oracle detects real
// delivery-guarantee violations rather than vacuously passing.
func TestInjectedDeliveryBugCaught(t *testing.T) {
	rep := Run(tinyScenario(), deliveryBug())
	if !rep.Failed() {
		t.Fatal("delivery bug went undetected")
	}
	if !hasOracle(rep, "delivery") {
		t.Fatalf("expected a delivery-oracle failure, got: %v", rep.Failures)
	}
}

// pinnedBugRepro is the spec the shrinker reduces tinyScenario to under
// deliveryBug — pinned so shrinker regressions (or spec-format drift)
// are caught, and so the repro line documented in docs/FUZZING.md stays
// honest.
const pinnedBugRepro = "mf1;topo=4x1:2.1.2,2.1.2;w=8;hw=0;dp=1;vtd=1;cas=1;fast=1;ff=0;wk=0;ns=7;mas=0;retry=10;lt=120;tr=burst;ts=11;msgs=1;rate=0;out=0;think=0;pb=8;ic=1"

// TestInjectedBugShrinksToPinnedRepro: the shrinker must reduce the
// failing scenario to the one-message serial minimum, the minimum must
// still fail under the bug, and the emitted spec must replay — the
// full catch → shrink → repro loop the ISSUE demands.
func TestInjectedBugShrinksToPinnedRepro(t *testing.T) {
	min, minRep := Shrink(tinyScenario(), deliveryBug(), 150)
	if !minRep.Failed() {
		t.Fatal("shrink lost the failure")
	}
	if min.Workers != 0 || min.Messages != 1 || min.PayloadBytes != MinPayloadBytes {
		t.Errorf("shrink left slack: workers=%d messages=%d payload=%d",
			min.Workers, min.Messages, min.PayloadBytes)
	}
	if got := EncodeSpec(min); got != pinnedBugRepro {
		t.Errorf("shrunk spec drifted:\n  got:  %s\n  want: %s", got, pinnedBugRepro)
	}
	if !strings.Contains(minRep.Repro(), "metrofuzz -replay") {
		t.Errorf("repro line malformed: %s", minRep.Repro())
	}

	// The pinned spec replays: still failing under the bug, clean on the
	// unmutated tree.
	s, err := DecodeSpec(pinnedBugRepro)
	if err != nil {
		t.Fatalf("pinned repro does not decode: %v", err)
	}
	if rep := Run(s, deliveryBug()); !rep.Failed() || !hasOracle(rep, "delivery") {
		t.Fatalf("pinned repro no longer reproduces the bug: %v", rep.Failures)
	}
	if rep := Run(s, Hooks{}); rep.Failed() {
		t.Fatalf("pinned repro fails on a clean tree: %v", rep.Failures)
	}
}

// TestTamperedDeliveryCaught: a delivery-path bug that rewrites payload
// bytes must trip the payload oracle — the end-to-end integrity check
// that backs the paper's checksum story independently of the CRC.
func TestTamperedDeliveryCaught(t *testing.T) {
	s := tinyScenario()
	s.Workers = 0
	bug := Hooks{TamperDeliver: func(dest int, payload []byte, intact bool) ([]byte, bool) {
		if intact && len(payload) > 7 {
			payload[7] ^= 1
		}
		return payload, intact
	}}
	rep := Run(s, bug)
	if !rep.Failed() || !hasOracle(rep, "payload") {
		t.Fatalf("tampered deliveries not flagged by the payload oracle: %v", rep.Failures)
	}
}

// TestDroppedResultCaught: losing completion records must trip the
// conservation oracle — every offered message produces exactly one
// Result, the source-responsibility ledger the endpoints guarantee.
func TestDroppedResultCaught(t *testing.T) {
	s := tinyScenario()
	s.Workers = 0
	bug := Hooks{DropResult: func(r nic.Result) bool { return r.Msg.Src == 1 }}
	rep := Run(s, bug)
	if !rep.Failed() || !hasOracle(rep, "conservation") {
		t.Fatalf("dropped results not flagged by the conservation oracle: %v", rep.Failures)
	}
}

// TestPhantomMessageCaught: the mutation gate for the progress oracle. A
// phantom message keeps an endpoint busy forever: endpoint 3's injection
// links are dead, so the message can never get through, and each time
// the endpoint gives up on it the completion is hidden and the message
// offered again. Injection ends, the network never goes quiet, and the
// watchdog must fire.
func TestPhantomMessageCaught(t *testing.T) {
	s := tinyScenario()
	s.Workers = 0
	const phantom = 1 << 40
	msg := nic.Message{ID: phantom, Src: 3, Dest: 0, Payload: make([]byte, s.PayloadBytes)}
	var net *netsim.Network
	bug := Hooks{
		Mutate: func(n *netsim.Network) {
			net = n
			for k := range n.Topo.Spec.EndpointLinks {
				n.InjectLink(3, k).Kill()
			}
			n.Endpoints[3].Offer(msg)
		},
		DropResult: func(r nic.Result) bool {
			if r.Msg.ID != phantom {
				return false
			}
			net.Endpoints[3].Offer(msg)
			return true
		},
	}
	rep := Run(s, bug)
	if !hasOracle(rep, "progress") {
		t.Fatalf("a phantom message that never completes not flagged by the progress oracle: %v", rep.Failures)
	}
}

// TestFaultViewReachability pins the structural-reachability model the
// delivery oracle leans on: dead injection links, dead routers and
// disabled final-stage ports must excuse exactly the pairs they cut off.
func TestFaultViewReachability(t *testing.T) {
	spec, err := Scenario{Preset: "fig1"}.Spec() // 16 endpoints, 2 links each, dilated stages
	if err != nil {
		t.Fatal(err)
	}
	top, err := topo.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	view := func(plan fault.Plan) *faultView {
		return newFaultView(&legOut{topo: top, fired: plan})
	}

	if v := view(nil); !v.reachable(0, 5) || !v.reachable(7, 0) {
		t.Fatal("fault-free pairs must be reachable")
	}
	// Severing both of an endpoint's injection links cuts off everything
	// it sends, and nothing it receives.
	v := view(fault.Plan{
		{Kind: fault.LinkKill, Stage: -1, Index: 0, Port: 0},
		{Kind: fault.LinkKill, Stage: -1, Index: 0, Port: 1},
	})
	if v.reachable(0, 5) {
		t.Fatal("endpoint with no live injection links can still send")
	}
	if !v.reachable(5, 0) {
		t.Fatal("inbound path should be unaffected by injection-link kills")
	}
	// One dead injection link leaves the other path alive.
	if v := view(fault.Plan{{Kind: fault.LinkKill, Stage: -1, Index: 0, Port: 0}}); !v.reachable(0, 5) {
		t.Fatal("one live injection link should suffice")
	}
	// Figure 1's dilated early stages tolerate any single router loss.
	if v := view(fault.Plan{{Kind: fault.RouterKill, Stage: 0, Index: 0}}); !v.reachable(0, 5) || !v.reachable(1, 9) {
		t.Fatal("single stage-0 router loss should not isolate anything in Figure 1")
	}
}

func hasOracle(rep *Report, oracle string) bool {
	for _, f := range rep.Failures {
		if f.Oracle == oracle {
			return true
		}
	}
	return false
}

// TestRecorderHookIsPassive checks the -trace seam: attaching the
// flight recorder to a run captures a non-empty event stream without
// perturbing the scenario's outcome — the recorded run is the same
// experiment as the bare one.
func TestRecorderHookIsPassive(t *testing.T) {
	s := tinyScenario()
	bare := Run(s, Hooks{})
	rec := telemetry.New(telemetry.Options{})
	traced := Run(s, Hooks{Recorder: rec})
	if bare.Failed() || traced.Failed() {
		t.Fatalf("clean scenario failed: bare=%v traced=%v", bare.Failures, traced.Failures)
	}
	if bare.Cycles != traced.Cycles || bare.Delivered != traced.Delivered || bare.Offered != traced.Offered {
		t.Fatalf("recorder changed the run: bare %d cycles %d/%d, traced %d cycles %d/%d",
			bare.Cycles, bare.Delivered, bare.Offered,
			traced.Cycles, traced.Delivered, traced.Offered)
	}
	if rec.Total() == 0 {
		t.Fatal("recorder captured no events")
	}
	sum := telemetry.Summarize(rec.Snapshot())
	if sum.Delivered != traced.Delivered {
		t.Errorf("trace reconstructs %d deliveries, harness saw %d", sum.Delivered, traced.Delivered)
	}
}

// TestKernelOracleClean runs a window of generated scenarios with the
// kernel-vs-reference leg armed: the compiled kernel must agree with the
// per-component reference stepper bit for bit across everything the
// generator throws at it — mixed topologies, cascades, faults, variable
// link delays.
func TestKernelOracleClean(t *testing.T) {
	n := 12
	if testing.Short() || raceEnabled {
		n = 4
	}
	for seed := int64(0); seed < int64(n); seed++ {
		rep := Run(Generate(seed), Hooks{KernelOracle: true})
		for _, f := range rep.Failures {
			t.Errorf("seed %d: %s", seed, f)
		}
		if rep.Failed() {
			t.Fatalf("seed %d failed; reproduce with: %s -kernel", seed, rep.Repro())
		}
	}
}

// TestKernelOracleCatchesDivergence: the mutation gate for the kernel
// oracle. A defect planted only in the compiled-kernel legs (the hook
// checks which stepper the leg installed) must trip the kernel
// differential — proof the oracle compares the legs rather than
// vacuously passing — and the shrinker must hold on to it down to a
// replayable spec that still fails.
func TestKernelOracleCatchesDivergence(t *testing.T) {
	s := tinyScenario()
	s.Workers = 0
	bug := Hooks{KernelOracle: true, Mutate: func(n *netsim.Network) {
		if _, ok := n.Engine.Kernel().(*netsim.Reference); ok {
			return // leave the reference stepper leg clean
		}
		for k := range n.Topo.Spec.EndpointLinks {
			n.InjectLink(0, k).SetCorruptor(func(w word.Word) word.Word {
				w.Payload ^= 2
				return w
			}, nil)
		}
	}}
	rep := Run(s, bug)
	if !rep.Failed() || !hasOracle(rep, "kernel") {
		t.Fatalf("kernel-leg divergence not flagged by the kernel oracle: %v", rep.Failures)
	}
	min, minRep := Shrink(s, bug, 60)
	if !hasOracle(minRep, "kernel") {
		t.Fatalf("shrink lost the kernel divergence: %v", minRep.Failures)
	}
	replayed, err := DecodeSpec(EncodeSpec(min))
	if err != nil {
		t.Fatal(err)
	}
	if again := Run(replayed, bug); !hasOracle(again, "kernel") {
		t.Fatalf("replaying the shrunk spec %q lost the kernel divergence: %v", minRep.Spec, again.Failures)
	}
}

// TestDifferentialOracleCatchesDivergence: the mutation gate for the
// serial/parallel differential. A defect planted only in the partitioned
// leg (the hook checks the engine's partition count) of a cascaded network
// must trip the differential, and the shrinker must hold on to it down to
// a replayable spec that still fails.
func TestDifferentialOracleCatchesDivergence(t *testing.T) {
	s := tinyScenario()
	s.CascadeWidth = 2
	bug := Hooks{Mutate: func(n *netsim.Network) {
		if n.Engine.Partitions() == 1 {
			return // leave the inline primary leg clean
		}
		n.InjectLink(0, 0).SetCorruptor(func(w word.Word) word.Word {
			w.Payload ^= 2
			return w
		}, nil)
	}}
	rep := Run(s, bug)
	if !rep.Failed() || !hasOracle(rep, "differential") {
		t.Fatalf("parallel-leg divergence not flagged by the differential oracle: %v", rep.Failures)
	}
	min, minRep := Shrink(s, bug, 60)
	if !hasOracle(minRep, "differential") {
		t.Fatalf("shrink lost the parallel-leg divergence: %v", minRep.Failures)
	}
	replayed, err := DecodeSpec(EncodeSpec(min))
	if err != nil {
		t.Fatal(err)
	}
	if again := Run(replayed, bug); !hasOracle(again, "differential") {
		t.Fatalf("replaying the shrunk spec %q lost the parallel-leg divergence: %v", minRep.Spec, again.Failures)
	}
}
