package metro_test

import (
	"fmt"
	"testing"

	"metro"
	"metro/internal/netsim"
	"metro/internal/stats"
	"metro/internal/telemetry"
	"metro/internal/traffic"
	"metro/internal/word"
)

// runFaultedSweepPoint measures one fault-degradation point: closed-loop
// uniform traffic at load 0.3 on the Figure 3 network while `kills`
// routers die mid-run.
func runFaultedSweepPoint(kills int) (metro.LoadPoint, int, error) {
	const (
		warmup  = 1500
		window  = 2500
		measure = 6000
	)
	driver := &traffic.ClosedLoop{
		Load:        0.3,
		MsgBytes:    20,
		Pattern:     traffic.Uniform{},
		Outstanding: 1,
		Seed:        31,
		Warmup:      warmup + window,
	}
	params := netsim.Params{
		Spec:          metro.Figure3Topology(),
		Width:         8,
		DataPipe:      1,
		LinkDelay:     1,
		FastReclaim:   true,
		Seed:          31,
		RetryLimit:    500,
		ListenTimeout: 300,
		OnResult:      driver.OnResult,
	}
	n, err := netsim.Build(params)
	if err != nil {
		return metro.LoadPoint{}, 0, err
	}
	driver.Bind(n)
	if kills > 0 {
		plan := metro.RandomRouterKills(n, kills, 2, 77, warmup, warmup+window)
		metro.InjectFaults(n, plan)
	}
	n.Run(warmup + window + measure)
	p := driver.Point()
	failed := 0
	for _, r := range driver.Measured() {
		if !r.Delivered {
			failed++
		}
	}
	return p, failed, nil
}

// BenchmarkCascadeWidths measures the bandwidth scaling of width
// cascading: the cycles to move a fixed payload through a logical router
// of c = 1, 2, 4 members (Table 3's cascade rows scale t_bit by 1/c).
func BenchmarkCascadeWidths(b *testing.B) {
	type row struct {
		c           int
		cyclesPerKB float64
	}
	var rows []row
	run := func() {
		rows = rows[:0]
		for _, c := range []int{1, 2, 4} {
			rows = append(rows, row{c, cascadeCyclesPerKB(b, c)})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	once("cascade", func() {
		t := stats.Table{Header: []string{"cascade width", "logical width", "cycles/KB", "speedup"}}
		base := rows[0].cyclesPerKB
		for _, r := range rows {
			t.Add(
				fmt.Sprintf("%d", r.c),
				fmt.Sprintf("%d b", 4*r.c),
				fmt.Sprintf("%.0f", r.cyclesPerKB),
				fmt.Sprintf("%.2fx", base/r.cyclesPerKB))
		}
		fmt.Printf("\n=== Width cascading: bandwidth scaling (4-bit members) ===\n%s\n", t.String())
	})
}

// cascadeCyclesPerKB streams 256 logical bytes through one cascaded
// router and reports cycles per kilobyte.
func cascadeCyclesPerKB(b *testing.B, c int) float64 {
	b.Helper()
	cfg := metro.RouterConfig{Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 2,
		HeaderWords: 0, DataPipe: 1, MaxVTD: 4, RandomInputs: 2, ScanPaths: 1}
	set := metro.DefaultRouterSettings(cfg)
	set.Dilation = 1
	g := metro.NewCascadeGroup("bw", cfg, set, c, 123)

	eng := metro.NewEngine()
	src := make([]metro.LinkEnd, c)
	for k := 0; k < c; k++ {
		for fp := 0; fp < cfg.Inputs; fp++ {
			l := metro.NewLink("f", 1)
			g.Member(k).AttachForward(fp, l.B())
			if fp == 0 {
				src[k] = l.A()
			}
			eng.AddLatch(l)
		}
		for bp := 0; bp < cfg.Outputs; bp++ {
			l := metro.NewLink("b", 1)
			g.Member(k).AttachBackward(bp, l.A())
			eng.AddLatch(l)
		}
	}
	eng.Add(g)

	const payloadBytes = 256
	logicalW := 4 * c
	words := payloadBytes * 8 / logicalW

	// Stream: route word, then data words, then drop.
	cycle := 0
	send := func(w word.Word) {
		for k := 0; k < c; k++ {
			src[k].Send(splitFor(w, k, 4))
		}
		eng.Step()
		cycle++
	}
	send(word.MakeRoute(2, 2))
	for i := 0; i < words; i++ {
		send(word.Word{Kind: word.Data, Payload: uint32(i)})
	}
	send(word.Word{Kind: word.Drop})
	return float64(cycle) / payloadBytes * 1024
}

func splitFor(w word.Word, k, width int) word.Word {
	switch w.Kind {
	case word.Data, word.ChecksumWord:
		return word.Word{Kind: w.Kind, Payload: (w.Payload >> uint(k*width)) & word.Mask(mustWidth(width))}
	default:
		return w
	}
}

// BenchmarkRouterEvalThroughput is a performance microbenchmark: router
// evaluations per second with active connections (the simulator's core
// inner loop).
func BenchmarkRouterEvalThroughput(b *testing.B) {
	n, err := metro.BuildNetwork(metro.NetworkParams{
		Spec:        metro.Figure3Topology(),
		Width:       8,
		DataPipe:    1,
		LinkDelay:   1,
		FastReclaim: true,
		Seed:        3,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Keep traffic flowing so the routers have work.
	for e := 0; e < 64; e += 2 {
		n.Send(e, (e+17)%64, make([]byte, 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Engine.Step()
		if i%1000 == 999 { // refill
			b.StopTimer()
			n.TakeResults()
			for e := 0; e < 64; e += 2 {
				n.Send(e, (e+17)%64, make([]byte, 20))
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n.Engine.Kernel().Units()), "units/cycle")
}

// BenchmarkSingleMessageLatency times one complete reliable delivery
// (build excluded) on the Figure 1 network.
func BenchmarkSingleMessageLatency(b *testing.B) {
	n, err := metro.BuildNetwork(metro.NetworkParams{
		Spec:        metro.Figure1Topology(),
		Width:       8,
		DataPipe:    1,
		LinkDelay:   1,
		FastReclaim: true,
		Seed:        3,
	})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, ok := metro.SendOne(n, i%16, (i+7)%16, payload, 5000)
		if !ok || !res.Delivered {
			b.Fatalf("delivery failed at iteration %d", i)
		}
	}
}

// BenchmarkWiringStyles compares the deterministic interleaved wiring with
// the randomly wired multibutterfly under adversarial bit-reversal
// traffic (the construction studied by Leighton/Lisinski/Maggs).
func BenchmarkWiringStyles(b *testing.B) {
	type outcome struct {
		wiring string
		p      metro.LoadPoint
	}
	var outcomes []outcome
	run := func() {
		outcomes = outcomes[:0]
		for _, wiring := range []metro.Wiring{metro.WiringInterleave, metro.WiringRandom} {
			spec := metro.Figure3Topology()
			spec.Wiring = wiring
			spec.Seed = 77
			p, err := metro.RunClosedLoop(metro.RunSpec{
				Net: metro.NetworkParams{
					Spec: spec, Width: 8, DataPipe: 1, LinkDelay: 1,
					FastReclaim: true, Seed: 13, RetryLimit: 1000,
				},
				Load:          0.5,
				MsgBytes:      20,
				Pattern:       metro.BitReverseTraffic{},
				Outstanding:   1,
				WarmupCycles:  1500,
				MeasureCycles: 5000,
				Seed:          9,
			})
			if err != nil {
				b.Fatal(err)
			}
			outcomes = append(outcomes, outcome{wiring.String(), p})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	once("wiring", func() {
		t := stats.Table{Header: []string{"wiring", "mean lat", "p95", "retries/msg", "accepted"}}
		for _, o := range outcomes {
			t.Add(o.wiring,
				fmt.Sprintf("%.1f", o.p.Latency.Mean),
				fmt.Sprintf("%.0f", o.p.Latency.P95),
				fmt.Sprintf("%.2f", o.p.RetriesPerMessage),
				fmt.Sprintf("%.2f", o.p.AcceptedLoad))
		}
		fmt.Printf("\n=== Wiring styles under bit-reversal traffic (load 0.5) ===\n%s\n", t.String())
	})
}

// BenchmarkTrafficPatterns sweeps the built-in workload patterns at a
// fixed offered load, showing how the multipath network absorbs uniform,
// permutation and hotspot traffic differently.
func BenchmarkTrafficPatterns(b *testing.B) {
	patterns := []metro.TrafficPattern{
		metro.UniformTraffic{},
		metro.BitReverseTraffic{},
		metro.TransposeTraffic{},
		metro.HotspotTraffic{Target: 0, Fraction: 0.25},
	}
	type outcome struct {
		name string
		p    metro.LoadPoint
	}
	var outcomes []outcome
	run := func() {
		outcomes = outcomes[:0]
		for _, pat := range patterns {
			p, err := metro.RunClosedLoop(metro.RunSpec{
				Net: metro.NetworkParams{
					Spec: metro.Figure3Topology(), Width: 8, DataPipe: 1, LinkDelay: 1,
					FastReclaim: true, Seed: 19, RetryLimit: 1000,
				},
				Load:          0.4,
				MsgBytes:      20,
				Pattern:       pat,
				Outstanding:   1,
				WarmupCycles:  1500,
				MeasureCycles: 5000,
				Seed:          11,
			})
			if err != nil {
				b.Fatal(err)
			}
			outcomes = append(outcomes, outcome{pat.Name(), p})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	once("patterns", func() {
		t := stats.Table{Header: []string{"pattern", "mean lat", "p95", "retries/msg", "accepted"}}
		for _, o := range outcomes {
			t.Add(o.name,
				fmt.Sprintf("%.1f", o.p.Latency.Mean),
				fmt.Sprintf("%.0f", o.p.Latency.P95),
				fmt.Sprintf("%.2f", o.p.RetriesPerMessage),
				fmt.Sprintf("%.2f", o.p.AcceptedLoad))
		}
		fmt.Printf("\n=== Traffic patterns on the Figure 3 network (load 0.4) ===\n%s\n", t.String())
	})
}

// BenchmarkCascadedNetworkLatency measures the end-to-end message latency
// of full networks built from cascaded routers — the cycle-domain analogue
// of Table 3's cascade rows (t_stg constant, serialization time divided by
// c).
func BenchmarkCascadedNetworkLatency(b *testing.B) {
	type row struct {
		c   int
		lat uint64
	}
	var rows []row
	run := func() {
		rows = rows[:0]
		for _, c := range []int{1, 2, 4} {
			n, err := metro.BuildNetwork(metro.NetworkParams{
				Spec:         metro.Figure1Topology(),
				Width:        4,
				CascadeWidth: c,
				FastReclaim:  true,
				Seed:         61,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, ok := metro.SendOne(n, 0, 15, make([]byte, 20), 5000)
			if !ok || !res.Delivered {
				b.Fatal("delivery failed")
			}
			rows = append(rows, row{c, res.Done - res.Injected})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	once("cascnet", func() {
		t := stats.Table{Header: []string{"cascade", "logical width", "20-byte latency (cycles)"}}
		for _, r := range rows {
			t.Add(fmt.Sprintf("%d", r.c), fmt.Sprintf("%d b", 4*r.c), fmt.Sprintf("%d", r.lat))
		}
		fmt.Printf("\n=== Cascaded networks: unloaded 20-byte latency (4-bit components) ===\n%s\n", t.String())
	})
}

// BenchmarkBlockingProfile measures where connections block, stage by
// stage, as offered load rises. Under uniform random traffic the dilated
// early stages absorb contention (multiple equivalent outputs), and
// blocking concentrates at the dilation-1 final stage, where endpoint
// contention — two connections racing for the same destination's delivery
// links — cannot be diffused. This is exactly the structural argument for
// dilating the early stages: without it, the same contention would
// appear at every stage.
func BenchmarkBlockingProfile(b *testing.B) {
	loads := []float64{0.2, 0.5, 0.8}
	type row struct {
		load  float64
		rates []float64
	}
	var rows []row
	run := func() {
		rows = rows[:0]
		for _, load := range loads {
			// Only the streaming sink is read, so the recorder has no ring.
			counters := metro.NewStageCounters()
			rec := telemetry.NewStream()
			rec.SetSink(counters.Sink)
			driver := &traffic.ClosedLoop{
				Load:        load,
				MsgBytes:    20,
				Pattern:     traffic.Uniform{},
				Outstanding: 1,
				Seed:        71,
				Warmup:      1000,
			}
			params := netsim.Params{
				Spec: metro.Figure3Topology(), Width: 8, DataPipe: 1, LinkDelay: 1,
				FastReclaim: true, Seed: 71, RetryLimit: 1000,
				Recorder: rec,
				OnResult: driver.OnResult,
			}
			n, err := netsim.Build(params)
			if err != nil {
				b.Fatal(err)
			}
			driver.Bind(n)
			n.Run(6000)
			stats3 := counters.PerStage(3)
			rates := make([]float64, 3)
			for i, s := range stats3 {
				rates[i] = s.BlockRate()
			}
			rows = append(rows, row{load, rates})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	once("blocking", func() {
		t := stats.Table{Header: []string{"offered load", "stage 0 block rate", "stage 1", "stage 2 (dilation-1)"}}
		for _, r := range rows {
			t.Add(
				fmt.Sprintf("%.1f", r.load),
				fmt.Sprintf("%.3f", r.rates[0]),
				fmt.Sprintf("%.3f", r.rates[1]),
				fmt.Sprintf("%.3f", r.rates[2]))
		}
		fmt.Printf("\n=== Blocking profile by stage (Figure 3 network) ===\n%s"+
			"dilated stages diffuse contention; blocking concentrates at the\n"+
			"dilation-1 final stage where destination conflicts are irreducible\n\n", t.String())
	})
}

// BenchmarkNetworkSizeScaling evaluates the latency model across machine
// sizes: t20,N grows logarithmically — one stage latency per doubling of
// endpoints — which is the architectural point of multistage networks.
func BenchmarkNetworkSizeScaling(b *testing.B) {
	sizes := []int{32, 64, 128, 256, 512, 1024, 4096}
	type row struct {
		n      int
		orbit  float64
		custom float64
	}
	var rows []row
	orbit := metro.Table3()[0]
	custom := metro.Table3()[11]
	run := func() {
		rows = rows[:0]
		for _, n := range sizes {
			rows = append(rows, row{n, orbit.Scaled(n).T2032(), custom.Scaled(n).T2032()})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	once("scaling", func() {
		t := stats.Table{Header: []string{"endpoints", "stages", "METROJR-ORBIT t20,N", "full-custom hw=1 t20,N"}}
		for _, r := range rows {
			t.Add(
				fmt.Sprintf("%d", r.n),
				fmt.Sprintf("%d", len(orbit.Scaled(r.n).StageBits)),
				fmt.Sprintf("%.0f ns", r.orbit),
				fmt.Sprintf("%.0f ns", r.custom))
		}
		fmt.Printf("\n=== Network size scaling: t20,N (logarithmic growth) ===\n%s\n", t.String())
	})
}

// BenchmarkSaturationThroughput sweeps open-loop (Bernoulli) injection
// past the network's saturation point: accepted load plateaus while
// queueing delay diverges — the standard complement to the closed-loop
// Figure 3 curve.
func BenchmarkSaturationThroughput(b *testing.B) {
	loads := []float64{0.1, 0.3, 0.5, 0.8, 1.2}
	var points []metro.LoadPoint
	spec := metro.RunSpec{
		Net: metro.NetworkParams{
			Spec: metro.Figure3Topology(), Width: 8, DataPipe: 1, LinkDelay: 1,
			FastReclaim: true, Seed: 37, RetryLimit: 1000,
		},
		MsgBytes:      20,
		WarmupCycles:  1500,
		MeasureCycles: 5000,
		Seed:          13,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		points, err = metro.OpenLoopSweep(spec, loads)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	once("saturation", func() {
		t := stats.Table{Header: []string{"offered", "accepted", "transit lat", "queue+transit lat", "retries/msg"}}
		for _, p := range points {
			t.Add(
				fmt.Sprintf("%.1f", p.OfferedLoad),
				fmt.Sprintf("%.2f", p.AcceptedLoad),
				fmt.Sprintf("%.1f", p.Latency.Mean),
				fmt.Sprintf("%.1f", p.QueueLatency.Mean),
				fmt.Sprintf("%.2f", p.RetriesPerMessage))
		}
		fmt.Printf("\n=== Open-loop saturation throughput (Figure 3 network) ===\n%s"+
			"accepted load saturates while queueing delay diverges\n\n", t.String())
	})
}

// BenchmarkRetryDistribution validates the paper's Section 4 claim that
// "the number of retries required, in practice, is small": at a moderate
// working load, most messages deliver on the first attempt and the tail
// of the retry distribution is short. It also measures the claim under a
// static router fault.
func BenchmarkRetryDistribution(b *testing.B) {
	type row struct {
		label              string
		mean, p95, max     float64
		zeroRetries, total int
	}
	var rows []row
	measure := func(label string, faults metro.FaultPlan) row {
		var retries stats.Sample
		zero, total := 0, 0
		driver := &traffic.ClosedLoop{
			Load:        0.4,
			MsgBytes:    20,
			Pattern:     traffic.Uniform{},
			Outstanding: 1,
			Seed:        47,
			Warmup:      1500,
		}
		params := netsim.Params{
			Spec: metro.Figure3Topology(), Width: 8, DataPipe: 1, LinkDelay: 1,
			FastReclaim: true, Seed: 47, RetryLimit: 1000,
			ListenTimeout: 300,
			OnResult:      driver.OnResult,
		}
		n, err := netsim.Build(params)
		if err != nil {
			b.Fatal(err)
		}
		driver.Bind(n)
		if len(faults) > 0 {
			metro.InjectFaults(n, faults)
		}
		n.Run(8000)
		for _, r := range driver.Measured() {
			retries.Add(float64(r.Retries))
			total++
			if r.Retries == 0 {
				zero++
			}
		}
		return row{label, retries.Mean(), retries.Percentile(95), retries.Max(), zero, total}
	}
	run := func() {
		rows = rows[:0]
		rows = append(rows, measure("healthy, load 0.4", nil))
		rows = append(rows, measure("one router dead", metro.FaultPlan{
			{At: 0, Kind: metro.FaultRouterKill, Stage: 1, Index: 3},
		}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	once("retrydist", func() {
		t := stats.Table{Header: []string{"condition", "mean retries", "p95", "max", "first-try delivery"}}
		for _, r := range rows {
			t.Add(r.label,
				fmt.Sprintf("%.2f", r.mean),
				fmt.Sprintf("%.0f", r.p95),
				fmt.Sprintf("%.0f", r.max),
				fmt.Sprintf("%.0f%%", 100*float64(r.zeroRetries)/float64(r.total)))
		}
		fmt.Printf("\n=== Retry distribution (\"the number of retries required, in practice, is small\") ===\n%s\n",
			t.String())
	})
}

// BenchmarkMessageSizeCrossover evaluates the latency model across message
// sizes for three implementation points. Small messages are dominated by
// per-stage latency (the 2-stage radix-8 METRO wins over the 4-stage
// METROJR); large messages are dominated by serialization (cascading
// wins). The crossovers fall where the model says they should.
func BenchmarkMessageSizeCrossover(b *testing.B) {
	rows16 := metro.Table3()
	jr := rows16[4]      // METROJR std cell, 4 stages, w=4
	wide := rows16[7]    // METRO i=o=8 w=4 std cell, 2 stages
	cascade := rows16[6] // 4-cascade std cell, 4 stages, w_eff=16
	sizes := []int{1, 4, 8, 20, 64, 256, 1024}
	type row struct {
		bytes   int
		jr      float64
		wide    float64
		cascade float64
	}
	var rows []row
	run := func() {
		rows = rows[:0]
		for _, n := range sizes {
			rows = append(rows, row{n,
				jr.MessageLatency(n), wide.MessageLatency(n), cascade.MessageLatency(n)})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	once("crossover", func() {
		t := stats.Table{Header: []string{"payload", "METROJR 4-stage", "METRO 8x8 2-stage", "4-cascade", "winner"}}
		for _, r := range rows {
			winner := "2-stage"
			min := r.wide
			if r.jr < min {
				winner, min = "METROJR", r.jr
			}
			if r.cascade < min {
				winner = "4-cascade"
			}
			t.Add(
				fmt.Sprintf("%d B", r.bytes),
				fmt.Sprintf("%.0f ns", r.jr),
				fmt.Sprintf("%.0f ns", r.wide),
				fmt.Sprintf("%.0f ns", r.cascade),
				winner)
		}
		fmt.Printf("\n=== Message-size crossover (0.8u std cell implementations) ===\n%s"+
			"short messages favor fewer stages; long messages favor wide (cascaded) channels\n\n",
			t.String())
	})
}

// mustWidth returns the word.Width of n bits; the tests only ask for
// widths in [1, 32].
func mustWidth(n int) word.Width {
	w, err := word.NewWidth(n)
	if err != nil {
		panic(err)
	}
	return w
}
