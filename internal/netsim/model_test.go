package netsim

import (
	"testing"

	"metro/internal/topo"
	"metro/internal/word"
)

// TestSimulatorMatchesLatencyModel cross-validates the cycle-accurate
// simulator against the paper's Table 4 analytical model. In clock cycles
// the one-way latency of a message's last word (the TURN) is exactly
//
//	stages*dp + (stages+1)*vtd + messageWords - 1
//
// — each router adds dp cycles, each of the stages+1 links (injection,
// stages-1 inter-stage, delivery) adds vtd cycles, and the last word
// trails the first by messageWords-1. This is the cycle-domain form of
// the paper's t_stg relation (the paper's stages*t_stg counts the wire
// of each stage once; our network has one more physical link because the
// endpoint interfaces sit outside the first and last routers). The test
// pins the relation exactly across dp, vtd, w and hw configurations.
func TestSimulatorMatchesLatencyModel(t *testing.T) {
	type cfg struct {
		dp, vtd, width, hw int
	}
	cases := []cfg{
		{1, 1, 8, 0},
		{2, 1, 8, 0},
		{1, 2, 8, 0},
		{2, 3, 8, 0},
		{1, 1, 4, 0},
		{1, 1, 8, 1},
		{1, 1, 8, 2},
	}
	const payload = 20
	for _, tc := range cases {
		n, err := Build(Params{
			Spec:        topo.Figure3(),
			Width:       tc.width,
			HeaderWords: tc.hw,
			DataPipe:    tc.dp,
			LinkDelay:   tc.vtd,
			FastReclaim: true,
			Seed:        11,
		})
		if err != nil {
			t.Fatal(err)
		}

		// Measure the one-way arrival directly: cycle the TURN reaches
		// the destination, minus the injection cycle.
		stages := len(n.Params.Spec.Stages)
		msgWords := n.MessageWords(payload)

		turnSeen := uint64(0)
		dest := 63
		start := n.Engine.Cycle()
		n.Send(0, dest, make([]byte, payload))
		// Step manually, watching for the TURN at any delivery link of
		// the destination endpoint.
		var deliveryEnds []func() word.Word
		for s, st := range n.Topo.Spec.Stages {
			for j := range n.Routers[s] {
				for bp := 0; bp < st.Outputs(); bp++ {
					if ref := n.Topo.Out(s, j, bp); ref.Kind == topo.KindEndpoint && ref.Index == dest {
						b := n.OutLink(s, j, bp).B()
						deliveryEnds = append(deliveryEnds, b.Recv)
					}
				}
			}
		}
		for i := 0; i < 3000 && turnSeen == 0; i++ {
			for _, recv := range deliveryEnds {
				if recv().Kind == word.Turn {
					turnSeen = n.Engine.Cycle()
				}
			}
			n.Engine.Step()
		}
		if turnSeen == 0 {
			t.Fatalf("%+v: TURN never reached the destination", tc)
		}
		oneWay := int(turnSeen - start)
		predicted := stages*tc.dp + (stages+1)*tc.vtd + msgWords - 1
		if oneWay != predicted {
			t.Errorf("%+v: one-way latency %d cycles, model predicts %d (stages=%d dp=%d vtd=%d words=%d)",
				tc, oneWay, predicted, stages, tc.dp, tc.vtd, msgWords)
		}
		// And the reliable round trip completes.
		if !n.RunUntilQuiet(3000) {
			t.Fatalf("%+v: network did not go quiet", tc)
		}
		res := n.Results()
		if len(res) != 1 || !res[0].Delivered {
			t.Fatalf("%+v: delivery failed", tc)
		}
	}
}

// TestRoundTripOverheadIsConstant verifies that the difference between
// the measured round trip and the model's one-way latency is the same
// protocol constant for every dp/vtd configuration (the reply crossing
// plus the fixed ack words), confirming the simulator adds no hidden
// configuration-dependent latency.
func TestRoundTripOverheadIsConstant(t *testing.T) {
	type cfg struct{ dp, vtd int }
	cases := []cfg{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 1}}
	const payload = 20
	replyWords := 3 // status + checksum + turn at w=8

	overheadMinusReturn := map[int]bool{}
	for _, tc := range cases {
		n, err := Build(Params{
			Spec:        topo.Figure3(),
			Width:       8,
			DataPipe:    tc.dp,
			LinkDelay:   tc.vtd,
			FastReclaim: true,
			Seed:        13,
		})
		if err != nil {
			t.Fatal(err)
		}
		stages := len(n.Params.Spec.Stages)
		msgWords := n.MessageWords(payload)
		n.Send(0, 63, make([]byte, payload))
		if !n.RunUntilQuiet(5000) {
			t.Fatal("not quiet")
		}
		r := n.Results()[0]
		if !r.Delivered {
			t.Fatal("not delivered")
		}
		roundTrip := int(r.Done - r.Injected)
		oneWay := stages*tc.dp + (stages+1)*tc.vtd + msgWords - 1
		// The return path crosses the same routers and links backward.
		returnPath := stages*tc.dp + (stages+1)*tc.vtd
		residual := roundTrip - oneWay - returnPath - replyWords
		overheadMinusReturn[residual] = true
		if residual < 0 || residual > 6 {
			t.Errorf("dp=%d vtd=%d: residual protocol overhead %d cycles outside [0,6] "+
				"(roundTrip=%d oneWay=%d return=%d reply=%d)",
				tc.dp, tc.vtd, residual, roundTrip, oneWay, returnPath, replyWords)
		}
	}
	if len(overheadMinusReturn) != 1 {
		t.Errorf("protocol overhead varies with configuration: %v", overheadMinusReturn)
	}
}

// TestVariableTurnDelayPerStage exercises the paper's variable turn delay:
// different link tiers carry different wire pipeline depths, and the
// one-way latency is the sum of the per-tier delays — wires of different
// lengths coexist transparently, held together by DATA-IDLE fill.
func TestVariableTurnDelayPerStage(t *testing.T) {
	delays := []int{1, 3, 2, 1} // injection, s0 out, s1 out, s2 out (delivery)
	n, err := Build(Params{
		Spec:            topo.Figure3(),
		Width:           8,
		DataPipe:        1,
		LinkDelay:       1,
		StageLinkDelays: delays,
		FastReclaim:     true,
		Seed:            19,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The routers' Table 2 turn-delay registers record the attached wire
	// depths (forward port of a stage-1 router sees the stage-0 output
	// tier, depth 3).
	r1 := n.RouterAt(1, 0)
	if got := r1.Settings().TurnDelay[0]; got != 3 {
		t.Fatalf("stage-1 forward port turn delay = %d, want 3", got)
	}
	// One-way latency: stages*dp + sum(link delays) + words - 1.
	const payload = 20
	msgWords := n.MessageWords(payload)
	wireSum := 0
	for _, d := range delays {
		wireSum += d
	}
	dest := 63
	var deliveryRecv []func() word.Word
	for s, st := range n.Topo.Spec.Stages {
		for j := range n.Routers[s] {
			for bp := 0; bp < st.Outputs(); bp++ {
				if ref := n.Topo.Out(s, j, bp); ref.Kind == topo.KindEndpoint && ref.Index == dest {
					b := n.OutLink(s, j, bp).B()
					deliveryRecv = append(deliveryRecv, b.Recv)
				}
			}
		}
	}
	start := n.Engine.Cycle()
	n.Send(0, dest, make([]byte, payload))
	arrival := uint64(0)
	for i := 0; i < 3000 && arrival == 0; i++ {
		for _, recv := range deliveryRecv {
			if recv().Kind == word.Turn {
				arrival = n.Engine.Cycle()
			}
		}
		n.Engine.Step()
	}
	if arrival == 0 {
		t.Fatal("message never arrived")
	}
	oneWay := int(arrival - start)
	predicted := 3*1 + wireSum + msgWords - 1
	if oneWay != predicted {
		t.Fatalf("one-way latency %d, model predicts %d with mixed wire depths %v",
			oneWay, predicted, delays)
	}
	// The round trip completes despite the heterogeneous turn delays.
	if !n.RunUntilQuiet(3000) {
		t.Fatal("not quiet")
	}
	if res := n.Results(); len(res) != 1 || !res[0].Delivered {
		t.Fatalf("delivery failed: %+v", res)
	}
}
