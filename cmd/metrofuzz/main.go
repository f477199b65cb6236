// metrofuzz is the model-based randomized conformance harness: it
// generates whole simulation scenarios (topology, engine configuration,
// traffic schedule, dynamic fault schedule) from seeds, runs each one
// under the oracle battery of internal/metrofuzz — exactly-once
// delivery with payload checksums, message conservation, bounded
// progress, per-cycle router invariants, inline-vs-parallel
// differential equality — and, on failure, shrinks the scenario to a
// minimal failing configuration with a one-line replayable repro.
//
// Usage:
//
//	metrofuzz -seeds 100            # ensemble over seeds 0..99
//	metrofuzz -seeds 100 -start 500 # ensemble over seeds 500..599
//	metrofuzz -seed 42 -v           # one generated scenario, verbosely
//	metrofuzz -replay 'mf1;...'     # re-run a reported repro spec
//	metrofuzz -seeds 50 -kernel     # arm the kernel-vs-reference oracle
//
// Every scenario is a pure function of its seed, so a failure seen
// anywhere reproduces everywhere. Exit status is 1 when any oracle
// fires.
package main

import (
	"flag"
	"fmt"
	"os"

	"metro/internal/metrofuzz"
	"metro/internal/stats"
	"metro/internal/telemetry"
)

func main() {
	seeds := flag.Int("seeds", 0, "ensemble size: run generated scenarios for seeds [start, start+seeds)")
	start := flag.Int64("start", 0, "first seed of the ensemble")
	seed := flag.Int64("seed", -1, "run the single generated scenario for this seed")
	replay := flag.String("replay", "", "run one scenario from a replay spec line")
	shrink := flag.Bool("shrink", true, "on failure, shrink to a minimal failing scenario before reporting")
	shrinkRuns := flag.Int("shrink-runs", 150, "run budget for the shrinker")
	verbose := flag.Bool("v", false, "print one line per scenario")
	traceOut := flag.String("trace", "", "single-scenario mode: record the primary (oracle-audited) leg's telemetry to this mtr1 file")
	kernel := flag.Bool("kernel", false, "also run every scenario on the per-component reference stepper and demand bit-identity with the compiled kernel")
	flag.Parse()

	switch {
	case *replay != "":
		s, err := metrofuzz.DecodeSpec(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err) // decode errors carry the metrofuzz: prefix
			os.Exit(2)
		}
		os.Exit(runOne(s, *shrink, *shrinkRuns, true, *traceOut, *kernel))
	case *seed >= 0:
		os.Exit(runOne(metrofuzz.Generate(*seed), *shrink, *shrinkRuns, true, *traceOut, *kernel))
	default:
		if *traceOut != "" {
			fmt.Fprintln(os.Stderr, "metrofuzz: -trace needs a single scenario (-seed or -replay)")
			os.Exit(2)
		}
		n := *seeds
		if n <= 0 {
			n = 20
		}
		os.Exit(runEnsemble(*start, n, *shrink, *shrinkRuns, *verbose, *kernel))
	}
}

// runOne executes a single scenario and reports it in full.
func runOne(s metrofuzz.Scenario, shrink bool, shrinkRuns int, verbose bool, traceOut string, kernel bool) int {
	hooks := metrofuzz.Hooks{KernelOracle: kernel}
	if traceOut != "" {
		hooks.Recorder = telemetry.New(telemetry.Options{})
	}
	rep := metrofuzz.Run(s, hooks)
	if verbose {
		fmt.Printf("scenario: %s\n", metrofuzz.Describe(rep))
		fmt.Printf("spec:     %s\n", rep.Spec)
	}
	if hooks.Recorder != nil {
		if err := telemetry.WriteFile(traceOut, hooks.Recorder.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "metrofuzz: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d events written to %s\n", hooks.Recorder.Len(), traceOut)
	}
	if !rep.Failed() {
		fmt.Printf("ok: all oracles passed (%d messages, %d cycles)\n", rep.Offered, rep.Cycles)
		return 0
	}
	reportFailure(rep, shrink, shrinkRuns, kernel)
	return 1
}

// runEnsemble sweeps generated scenarios and prints an oracle summary.
func runEnsemble(start int64, n int, shrink bool, shrinkRuns int, verbose bool, kernel bool) int {
	checked := map[string]int{}
	fired := map[string]int{}
	var failed []*metrofuzz.Report
	offered, delivered, duplicates, faults := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		s := metrofuzz.Generate(start + int64(i))
		rep := metrofuzz.Run(s, metrofuzz.Hooks{KernelOracle: kernel})
		offered += rep.Offered
		delivered += rep.Delivered
		duplicates += rep.Duplicates
		faults += rep.FaultsFired
		for _, o := range metrofuzz.ArmedOracles(s, kernel) {
			checked[o]++
		}
		seenOracle := map[string]bool{}
		for _, f := range rep.Failures {
			if !seenOracle[f.Oracle] {
				seenOracle[f.Oracle] = true
				fired[f.Oracle]++
			}
		}
		if verbose {
			status := "ok"
			if rep.Failed() {
				status = "FAIL " + rep.Failures[0].String()
			}
			fmt.Printf("seed %4d: %-40s %s\n", start+int64(i), metrofuzz.Describe(rep), status)
		}
		if rep.Failed() {
			failed = append(failed, rep)
		}
	}

	fmt.Printf("metrofuzz: %d scenarios (seeds %d..%d), %d passed, %d failed\n",
		n, start, start+int64(n)-1, n-len(failed), len(failed))
	fmt.Printf("traffic: %d messages offered, %d delivered, %d duplicate arrivals, %d faults fired\n",
		offered, delivered, duplicates, faults)
	t := stats.Table{Header: []string{"oracle", "checked", "failed"}}
	for _, o := range metrofuzz.OracleNames {
		t.Add(o, fmt.Sprintf("%d", checked[o]), fmt.Sprintf("%d", fired[o]))
	}
	fmt.Print(t.String())

	if len(failed) == 0 {
		return 0
	}
	fmt.Println()
	for _, rep := range failed {
		reportFailure(rep, shrink, shrinkRuns, kernel)
	}
	return 1
}

// reportFailure prints a failing report and its shrunk repro. The
// shrinker re-arms the kernel oracle so kernel-divergence failures
// still reproduce while shrinking.
func reportFailure(rep *metrofuzz.Report, shrink bool, shrinkRuns int, kernel bool) {
	fmt.Printf("FAIL: %s\n", metrofuzz.Describe(rep))
	fmt.Printf("  spec: %s\n", rep.Spec)
	for _, f := range rep.Failures {
		fmt.Printf("  %s\n", f)
	}
	if shrink {
		min, minRep := metrofuzz.Shrink(rep.Scenario, metrofuzz.Hooks{KernelOracle: kernel}, shrinkRuns)
		_ = min
		fmt.Printf("  shrunk: %s\n", metrofuzz.Describe(minRep))
		for _, f := range minRep.Failures {
			fmt.Printf("    %s\n", f)
		}
		fmt.Printf("  repro: %s\n", minRep.Repro())
	} else {
		fmt.Printf("  repro: %s\n", rep.Repro())
	}
}
