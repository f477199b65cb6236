// metrofault measures METRO's performance degradation under faults
// (paper, Section 6.2, and the companion fault-tolerance studies): it runs
// closed-loop traffic while killing increasing numbers of routers or links
// and reports latency, retries and delivery.
//
// Usage:
//
//	metrofault                      # router-kill sweep on the Figure 3 network
//	metrofault -kind link           # link-kill sweep
//	metrofault -counts 0,2,4,8,16   # fault counts to sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"metro"
	"metro/internal/netsim"
	"metro/internal/stats"
	"metro/internal/telemetry"
	"metro/internal/traffic"
)

func main() {
	kind := flag.String("kind", "router", "fault kind: router or link")
	countsArg := flag.String("counts", "0,1,2,4,8", "fault counts to sweep")
	load := flag.Float64("load", 0.3, "offered load")
	msgBytes := flag.Int("bytes", 20, "message payload bytes")
	warmup := flag.Uint64("warmup", 2000, "cycles before faults start")
	window := flag.Uint64("window", 4000, "cycles over which faults appear")
	measure := flag.Uint64("measure", 12000, "measured cycles after the fault window")
	seed := flag.Int64("seed", 9, "seed")
	traceOut := flag.String("trace", "", "record the highest-count sweep point's telemetry to this mtr1 file")
	workers := flag.Int("workers", 0, "partitions of the unit eval, one goroutine each; 1 is inline, 0 lets the engine choose from the network's size (inline on the Figure 3 network; results are bit-identical either way)")
	flag.Parse()

	if *kind != "router" && *kind != "link" {
		fmt.Fprintf(os.Stderr, "metrofault: unknown -kind %q (want router or link)\n", *kind)
		os.Exit(2)
	}
	var counts []int
	for _, s := range strings.Split(*countsArg, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 0 {
			fmt.Fprintf(os.Stderr, "metrofault: bad -counts entry %q (want a fault count >= 0)\n", s)
			os.Exit(2)
		}
		counts = append(counts, v)
	}

	engine := "serial engine"
	if *workers > 0 {
		engine = fmt.Sprintf("parallel engine, workers=%d", *workers)
	}
	fmt.Printf("fault degradation sweep: %s kills, load %.2f, %d-byte messages, %s\n",
		*kind, *load, *msgBytes, engine)
	t := stats.Table{Header: []string{
		"faults", "delivered", "failed", "mean lat", "p95", "retries/msg", "timeouts",
	}}
	for i, count := range counts {
		var rec *telemetry.Recorder
		if *traceOut != "" && i == len(counts)-1 {
			rec = telemetry.New(telemetry.Options{})
		}
		p, failed, timeouts := runWithFaults(*kind, count, *load, *msgBytes,
			*warmup, *window, *measure, *seed, *workers, rec)
		if rec != nil {
			writeTrace(rec, *traceOut)
		}
		t.Add(
			fmt.Sprintf("%d", count),
			fmt.Sprintf("%d", p.Delivered),
			fmt.Sprintf("%d", failed),
			fmt.Sprintf("%.1f", p.Latency.Mean),
			fmt.Sprintf("%.0f", p.Latency.P95),
			fmt.Sprintf("%.2f", p.RetriesPerMessage),
			fmt.Sprintf("%d", timeouts),
		)
	}
	fmt.Print(t.String())
	fmt.Println("\nlatency degrades gracefully: stochastic path selection routes retries around faults")
}

// writeTrace writes the recorded sweep point to traceOut and reports it
// on stdout, before the sweep table, which the caller prints when the
// sweep finishes.
func writeTrace(rec *telemetry.Recorder, traceOut string) {
	if err := telemetry.WriteFile(traceOut, rec.Snapshot()); err != nil {
		fmt.Fprintf(os.Stderr, "metrofault: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trace: %d events written to %s\n", rec.Len(), traceOut)
}

func runWithFaults(kind string, count int, load float64, msgBytes int,
	warmup, window, measure uint64, seed int64, workers int,
	rec *telemetry.Recorder) (stats.LoadPoint, int, int) {
	driver := &traffic.ClosedLoop{
		Load:        load,
		MsgBytes:    msgBytes,
		Pattern:     traffic.Uniform{},
		Outstanding: 1,
		Seed:        seed,
		Warmup:      warmup + window,
	}
	params := netsim.Params{
		Spec:          metro.Figure3Topology(),
		Width:         8,
		DataPipe:      1,
		LinkDelay:     1,
		FastReclaim:   true,
		Seed:          seed,
		RetryLimit:    500,
		ListenTimeout: 300,
		Workers:       workers,
		OnResult:      driver.OnResult,
		Recorder:      rec,
	}
	n, err := netsim.Build(params)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metrofault: %v\n", err)
		os.Exit(1)
	}
	defer n.Close()
	driver.Bind(n)

	var plan metro.FaultPlan
	if count > 0 {
		switch kind {
		case "router":
			plan = metro.RandomRouterKills(n, count, 2, seed+1, warmup, warmup+window)
		case "link":
			plan = metro.RandomLinkKills(n, count, seed+1, warmup, warmup+window)
		}
	}
	metro.InjectFaults(n, plan)
	n.Run(warmup + window + measure)

	p := driver.Point()
	failed, timeouts := 0, 0
	for _, r := range driver.Measured() {
		if !r.Delivered {
			failed++
		}
		timeouts += r.Timeouts
	}
	return p, failed, timeouts
}
