package metro_test

import (
	"testing"

	"metro"
)

func TestPublicTopologyAPI(t *testing.T) {
	for name, spec := range map[string]metro.TopologySpec{
		"fig1":    metro.Figure1Topology(),
		"fig3":    metro.Figure3Topology(),
		"net32":   metro.Topology32(),
		"net32r8": metro.Topology32Radix8(),
	} {
		top, err := metro.BuildTopology(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if top.RouterCount() == 0 {
			t.Fatalf("%s: no routers", name)
		}
		if n := top.PathCount(0, spec.Endpoints-1); n < 2 {
			t.Fatalf("%s: only %d paths — not multipath", name, n)
		}
	}
}

func TestPublicSendOne(t *testing.T) {
	n, err := metro.BuildNetwork(metro.NetworkParams{
		Spec:        metro.Figure1Topology(),
		Width:       8,
		FastReclaim: true,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, ok := metro.SendOne(n, 1, 9, []byte("api"), 5000)
	if !ok || !res.Delivered {
		t.Fatalf("SendOne failed: %+v", res)
	}
	if res.Done <= res.Injected {
		t.Fatal("no latency measured")
	}
}

// TestSendOneEitherResultsMode: a network built with OnResult delivers
// completions only to the hook and accumulates none, and SendOne still
// returns its own message's Result there, while the hook sees every
// completion exactly once.
func TestSendOneEitherResultsMode(t *testing.T) {
	build := func(onResult func(metro.Result)) *metro.Network {
		n, err := metro.BuildNetwork(metro.NetworkParams{
			Spec: metro.Figure1Topology(), Width: 8, FastReclaim: true, Seed: 1, OnResult: onResult,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	plain := build(nil)
	want, ok := metro.SendOne(plain, 1, 9, []byte("api"), 5000)
	if !ok || !want.Delivered {
		t.Fatalf("hookless SendOne failed: %+v", want)
	}

	var seen []metro.Result
	hooked := build(func(r metro.Result) { seen = append(seen, r) })
	hooked.Send(2, 5, []byte("other")) // a completion that is not SendOne's
	got, ok := metro.SendOne(hooked, 1, 9, []byte("api"), 5000)
	if !ok || got.Msg.ID != 2 || !got.Delivered || string(got.Msg.Payload) != "api" {
		t.Fatalf("SendOne on a hooked network: ok=%v %+v", ok, got)
	}
	if len(seen) != 2 || seen[0].Msg.ID+seen[1].Msg.ID != 3 {
		t.Fatalf("the hook saw %d completions, want messages 1 and 2 once each: %+v", len(seen), seen)
	}
	if n := len(hooked.Results()); n != 0 {
		t.Fatalf("a network built with OnResult accumulated %d results, want none", n)
	}
	// The hook is the network's own again once SendOne returns.
	hooked.Send(3, 7, []byte("after"))
	hooked.RunUntilQuiet(5000)
	if len(seen) != 3 {
		t.Fatalf("after SendOne the hook saw %d completions, want 3", len(seen))
	}
}

func TestPublicClosedLoop(t *testing.T) {
	p, err := metro.RunClosedLoop(metro.RunSpec{
		Net: metro.NetworkParams{
			Spec:        metro.Figure1Topology(),
			Width:       8,
			FastReclaim: true,
			Seed:        2,
		},
		Load:          0.2,
		MsgBytes:      8,
		Pattern:       metro.UniformTraffic{},
		Outstanding:   1,
		WarmupCycles:  500,
		MeasureCycles: 3000,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Messages == 0 || p.Delivered != p.Messages {
		t.Fatalf("closed loop lost messages: %+v", p)
	}
}

func TestPublicTables(t *testing.T) {
	rows := metro.Table3()
	paper := metro.PaperT2032()
	if len(rows) != 16 || len(paper) != 16 {
		t.Fatalf("Table 3 has %d rows, paper list %d", len(rows), len(paper))
	}
	for i, im := range rows {
		if im.T2032() != paper[i] {
			t.Fatalf("row %d: %f != %f", i, im.T2032(), paper[i])
		}
	}
	if len(metro.Table5()) != 7 {
		t.Fatalf("Table 5 has %d rows", len(metro.Table5()))
	}
}

func TestPublicFaultInjection(t *testing.T) {
	n, err := metro.BuildNetwork(metro.NetworkParams{
		Spec:        metro.Figure1Topology(),
		Width:       8,
		FastReclaim: true,
		Seed:        4,
		RetryLimit:  300,
	})
	if err != nil {
		t.Fatal(err)
	}
	metro.InjectFaults(n, metro.FaultPlan{
		{At: 0, Kind: metro.FaultRouterKill, Stage: 0, Index: 0},
	})
	res, ok := metro.SendOne(n, 0, 15, []byte("x"), 50000)
	if !ok || !res.Delivered {
		t.Fatalf("delivery with killed router failed: %+v", res)
	}
}

func TestPublicScanAndCascade(t *testing.T) {
	cfg := metro.RouterConfig{Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 2,
		DataPipe: 1, MaxVTD: 4, RandomInputs: 2, ScanPaths: 2}
	set := metro.DefaultRouterSettings(cfg)
	r := metro.NewRouter("pub", cfg, set, 7)
	mt := metro.NewMultiTAP(r, 0x123)
	if len(mt.TAPs()) != 2 {
		t.Fatalf("TAPs = %d", len(mt.TAPs()))
	}
	reg := metro.NewSettingsRegister(r)
	if bits, ok := mt.ReadSettings(reg.Len()); !ok || len(bits) != reg.Len() {
		t.Fatal("scan read failed")
	}
	g := metro.NewCascadeGroup("pubcascade", cfg, set, 2, 11)
	if g.Width() != 2 {
		t.Fatalf("cascade width = %d", g.Width())
	}
	l := metro.NewLink("pub", 1)
	if res := metro.LoopbackTest(l, 4, nil); !res.Passed {
		t.Fatalf("healthy loopback failed: %+v", res)
	}
}

func TestPublicCascadedNetwork(t *testing.T) {
	n, err := metro.BuildNetwork(metro.NetworkParams{
		Spec:         metro.Figure1Topology(),
		Width:        4,
		CascadeWidth: 2,
		FastReclaim:  true,
		Seed:         8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, ok := metro.SendOne(n, 3, 12, []byte("wide"), 5000)
	if !ok || !res.Delivered {
		t.Fatalf("cascaded delivery failed: %+v", res)
	}
}
