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
//	metrosim -loads 0.6 -warmup 0 -trace t.mtr  # record the point for metrotrace
package main

import (
	"flag"
	"fmt"
	"math"
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
	hist := flag.Bool("hist", false, "print the latency histogram of the last -loads point")
	traceOut := flag.String("trace", "", "rerun the last -loads point with the flight recorder and write its mtr1 trace to this file (read it with metrotrace)")
	flag.Parse()

	spec, ok := topo.Preset(*network)
	if !ok {
		reject("unknown network %q", *network)
	}

	pat, ok := traffic.PatternByName(*pattern)
	if !ok {
		reject("unknown pattern %q", *pattern)
	}

	// A value the network would replace with its default, or a flag the
	// traffic model ignores, is an error, not a header that misreports the
	// run.
	for _, f := range []struct {
		name string
		v    int
	}{{"width", *width}, {"dp", *dp}, {"vtd", *vtd}, {"cascade", *cascadeW}, {"outstanding", *outstanding}} {
		if f.v < 1 {
			reject("-%s %d is not a positive count", f.name, f.v)
		}
	}
	if *hw < 0 {
		reject("-hw %d is not a count of header words", *hw)
	}
	if *msgBytes < 0 {
		reject("-bytes %d is not a payload length", *msgBytes)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["outstanding"] && *openloop {
		reject("-outstanding does not apply with -openloop, which injects without a window")
	}
	// A closed-loop load is a duty cycle, at most 1; an open-loop load is
	// an injection rate, which may oversubscribe the network.
	maxLoad, want := 1.0, "a load in (0, 1]"
	if *openloop {
		maxLoad, want = math.MaxFloat64, "a positive load"
	}
	var loads []float64
	for _, s := range strings.Split(*loadsArg, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || !(v > 0 && v <= maxLoad) {
			reject("bad -loads entry %q (want %s)", s, want)
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
	fmt.Printf("network %s, %d endpoints, %s %s traffic, %d-byte messages, w=%d dp=%d vtd=%d hw=%d c=%d, auto engine\n",
		*network, spec.Endpoints, model, pat.Name(), *msgBytes, *width, *dp, *vtd, *hw, *cascadeW)
	sweep := metro.LoadSweep
	if *openloop {
		sweep = metro.OpenLoopSweep
	}
	points, err := sweep(run, loads)
	if err != nil {
		fatal(err)
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
	if (*hist || *traceOut != "") && len(points) > 0 {
		rerun(run, points[len(points)-1], *openloop, *hist, *traceOut)
	}
}

// reject reports input the tool cannot serve, naming the flag, and exits
// 2.
func reject(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "metrosim: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "metrosim: %v\n", err)
	os.Exit(1)
}

// rerun reruns the sweep's last load point once, collecting its raw
// per-message latencies when hist is set and its flight-recorder trace
// when traceOut is named, then prints the latency distribution and
// writes the trace. Reruns are deterministic, so the rerun is the same
// experiment the sweep's last row reported.
func rerun(run metro.RunSpec, last metro.LoadPoint, openloop, hist bool, traceOut string) {
	run.Load = last.OfferedLoad
	var lat stats.Sample
	if hist {
		warmup := run.WarmupCycles
		run.Net.OnResult = func(r metro.Result) {
			if r.Done >= warmup {
				lat.Add(float64(r.Done - r.Injected))
			}
		}
	}
	var rec *telemetry.Recorder
	if traceOut != "" {
		rec = telemetry.New(telemetry.Options{})
		run.Net.Recorder = rec
	}
	point := metro.RunClosedLoop
	if openloop {
		point = metro.RunOpenLoop
	}
	if _, err := point(run); err != nil {
		fatal(err)
	}
	if hist {
		fmt.Printf("\nlatency distribution at offered load %.2f (mean %.1f, p95 %.0f):\n",
			last.OfferedLoad, last.Latency.Mean, last.Latency.P95)
		fmt.Print(lat.Histogram(12, 44))
	}
	if rec != nil {
		if err := telemetry.WriteFile(traceOut, rec.Snapshot()); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntrace: %d events written to %s\n", rec.Len(), traceOut)
	}
}
