// metrosim runs cycle-accurate load-latency experiments on METRO networks,
// reproducing the paper's Figure 3 and supporting parameter sweeps over
// its configuration space.
//
// Usage:
//
//	metrosim                      # Figure 3: latency vs load, default sweep
//	metrosim -network fig1        # run on the 16x16 Figure 1 network
//	metrosim -loads 0.1,0.5,0.9   # custom offered loads
//	metrosim -pattern hotspot     # adversarial traffic
//	metrosim -bytes 20 -cycles 20000 -warmup 4000
//	metrosim -detailed            # detailed blocked replies instead of BCB
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"metro"
	"metro/internal/stats"
	"metro/internal/telemetry"
	"metro/internal/topo"
	"metro/internal/traffic"
)

func main() {
	network := flag.String("network", "fig3", "topology: fig1, fig3, net32, net32r8")
	loadsArg := flag.String("loads", "0.05,0.15,0.3,0.45,0.6,0.75,0.9", "offered loads")
	pattern := flag.String("pattern", "uniform", "traffic: uniform, hotspot, bitrev, transpose")
	msgBytes := flag.Int("bytes", 20, "message payload bytes")
	width := flag.Int("width", 8, "channel width w")
	dp := flag.Int("dp", 1, "router data pipeline stages")
	vtd := flag.Int("vtd", 1, "link pipeline stages")
	hw := flag.Int("hw", 0, "header words per router")
	cascadeW := flag.Int("cascade", 1, "router width-cascade factor c")
	warmup := flag.Uint64("warmup", 3000, "warmup cycles")
	cycles := flag.Uint64("cycles", 12000, "measured cycles")
	seed := flag.Int64("seed", 1, "simulation seed")
	detailed := flag.Bool("detailed", false, "detailed blocked replies instead of fast reclamation")
	outstanding := flag.Int("outstanding", 1, "messages in flight per endpoint")
	openloop := flag.Bool("openloop", false, "Bernoulli (open-loop) injection instead of processor-stall")
	hist := flag.Bool("hist", false, "print the latency histogram of the highest-load point")
	traceOut := flag.String("trace", "", "rerun the highest-load point with the flight recorder and write its mtr1 trace to this file")
	metrics := flag.Bool("metrics", false, "rerun the highest-load point with the flight recorder and print its telemetry summary")
	workers := flag.Int("workers", 0, "partitions of the unit eval, one goroutine each; 1 is inline, 0 lets the engine choose from the network's size (inline for every preset here; results are bit-identical either way)")
	flag.Parse()

	spec, ok := topo.Preset(*network)
	if !ok {
		fmt.Fprintf(os.Stderr, "metrosim: unknown network %q\n", *network)
		os.Exit(2)
	}

	pat, ok := traffic.PatternByName(*pattern)
	if !ok {
		fmt.Fprintf(os.Stderr, "metrosim: unknown pattern %q\n", *pattern)
		os.Exit(2)
	}

	var loads []float64
	for _, s := range strings.Split(*loadsArg, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrosim: bad load %q\n", s)
			os.Exit(2)
		}
		loads = append(loads, v)
	}

	run := metro.RunSpec{
		Net: metro.NetworkParams{
			Spec:         spec,
			Width:        *width,
			HeaderWords:  *hw,
			DataPipe:     *dp,
			LinkDelay:    *vtd,
			FastReclaim:  !*detailed,
			CascadeWidth: *cascadeW,
			Seed:         *seed,
			RetryLimit:   1000,
			Workers:      *workers,
		},
		MsgBytes:      *msgBytes,
		Pattern:       pat,
		Outstanding:   *outstanding,
		WarmupCycles:  *warmup,
		MeasureCycles: *cycles,
		Seed:          *seed + 1000,
	}

	model := "processor-stall"
	if *openloop {
		model = "open-loop"
	}
	engine := "serial engine"
	if *workers > 0 {
		engine = fmt.Sprintf("parallel engine, workers=%d", *workers)
	}
	fmt.Printf("network %s, %d endpoints, %s %s traffic, %d-byte messages, w=%d dp=%d vtd=%d hw=%d c=%d, %s\n",
		*network, spec.Endpoints, model, pat.Name(), *msgBytes, *width, *dp, *vtd, *hw, *cascadeW, engine)
	sweep := metro.LoadSweep
	if *openloop {
		sweep = metro.OpenLoopSweep
	}
	points, err := sweep(run, loads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metrosim: %v\n", err)
		os.Exit(1)
	}
	t := stats.Table{Header: []string{
		"offered", "accepted", "messages", "mean lat", "p50", "p95", "max", "retries/msg",
	}}
	for _, p := range points {
		t.Add(
			fmt.Sprintf("%.2f", p.OfferedLoad),
			fmt.Sprintf("%.2f", p.AcceptedLoad),
			fmt.Sprintf("%d", p.Messages),
			fmt.Sprintf("%.1f", p.Latency.Mean),
			fmt.Sprintf("%.0f", p.Latency.P50),
			fmt.Sprintf("%.0f", p.Latency.P95),
			fmt.Sprintf("%.0f", p.Latency.Max),
			fmt.Sprintf("%.2f", p.RetriesPerMessage),
		)
	}
	fmt.Print(t.String())
	if *hist && len(points) > 0 {
		last := points[len(points)-1]
		fmt.Printf("\nlatency distribution at offered load %.2f (mean %.1f, p95 %.0f):\n",
			last.OfferedLoad, last.Latency.Mean, last.Latency.P95)
		run.Load = last.OfferedLoad
		printHistogram(run, *openloop)
	}
	if (*traceOut != "" || *metrics) && len(points) > 0 {
		run.Load = points[len(points)-1].OfferedLoad
		recordPoint(run, *openloop, *traceOut, *metrics)
	}
}

// recordPoint reruns one load point with the flight recorder attached,
// writing the recorded trace and/or printing its telemetry summary.
// Reruns are deterministic, so the recorded point is the same
// experiment the sweep's last row reported.
func recordPoint(run metro.RunSpec, openloop bool, traceOut string, metrics bool) {
	rec := telemetry.New(telemetry.Options{})
	run.Net.Recorder = rec
	var err error
	if openloop {
		_, err = metro.RunOpenLoop(run)
	} else {
		_, err = metro.RunClosedLoop(run)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "metrosim: %v\n", err)
		os.Exit(1)
	}
	if traceOut != "" {
		if err := telemetry.WriteFile(traceOut, rec.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "metrosim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace: %d events written to %s\n", rec.Len(), traceOut)
	}
	if metrics {
		fmt.Printf("\ntelemetry at offered load %.2f:\n", run.Load)
		fmt.Print(telemetry.Summarize(rec.Snapshot()).Render())
	}
}

// printHistogram reruns one load point collecting raw per-message
// latencies and renders their distribution.
func printHistogram(run metro.RunSpec, openloop bool) {
	var lat stats.Sample
	warmup := run.WarmupCycles
	run.Net.OnResult = func(r metro.Result) {
		if r.Done >= warmup {
			lat.Add(float64(r.Done - r.Injected))
		}
	}
	var err error
	if openloop {
		_, err = metro.RunOpenLoop(run)
	} else {
		_, err = metro.RunClosedLoop(run)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "metrosim: %v\n", err)
		return
	}
	fmt.Print(lat.Histogram(12, 44))
}
