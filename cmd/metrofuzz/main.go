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
	"strings"

	"metro/internal/metrofuzz"
	"metro/internal/stats"
	"metro/internal/telemetry"
)

func main() {
	seeds := flag.Int("seeds", 20, "ensemble size: run generated scenarios for seeds [start, start+seeds)")
	start := flag.Int64("start", 0, "first seed of the ensemble")
	seed := flag.Int64("seed", -1, "run the single generated scenario for this seed")
	replay := flag.String("replay", "", "run one scenario from a replay spec line")
	shrink := flag.Bool("shrink", true, "on failure, shrink to a minimal failing scenario before reporting")
	shrinkRuns := flag.Int("shrink-runs", 150, "run budget for the shrinker")
	verbose := flag.Bool("v", false, "print one line per scenario")
	traceOut := flag.String("trace", "", "single-scenario mode: record the primary (oracle-audited) leg's telemetry to this mtr1 file")
	kernel := flag.Bool("kernel", false, "also run every scenario on the per-component reference stepper and demand bit-identity with the compiled kernel")
	flag.Parse()
	if *seeds < 1 {
		reject("-seeds %d is not a positive count", *seeds)
	}
	if *shrinkRuns < 1 {
		reject("-shrink-runs %d is not a positive run budget", *shrinkRuns)
	}

	switch {
	case *replay != "":
		s, err := metrofuzz.DecodeSpec(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err) // decode errors carry the metrofuzz: prefix
			os.Exit(2)
		}
		os.Exit(runOne(s, *shrink, *shrinkRuns, *traceOut, *kernel))
	case *seed >= 0:
		os.Exit(runOne(metrofuzz.Generate(*seed), *shrink, *shrinkRuns, *traceOut, *kernel))
	default:
		if *traceOut != "" {
			reject("-trace needs a single scenario (-seed or -replay)")
		}
		os.Exit(runEnsemble(*start, *seeds, *shrink, *shrinkRuns, *verbose, *kernel))
	}
}

// reject reports a flag value the tool cannot serve, naming the flag,
// and exits 2.
func reject(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "metrofuzz: "+format+"\n", args...)
	os.Exit(2)
}

// runOne executes a single scenario and prints the report's Summary —
// what metroserve stores for the same spec — with the trace line after
// its scenario and spec lines.
func runOne(s metrofuzz.Scenario, shrink bool, shrinkRuns int, traceOut string, kernel bool) int {
	hooks := metrofuzz.Hooks{KernelOracle: kernel}
	if traceOut != "" {
		hooks.Recorder = telemetry.New(telemetry.Options{})
	}
	rep := metrofuzz.Run(s, hooks)
	head, verdict := splitSummary(rep)
	fmt.Print(head)
	if hooks.Recorder != nil {
		if err := telemetry.WriteFile(traceOut, hooks.Recorder.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "metrofuzz: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d events written to %s\n", hooks.Recorder.Len(), traceOut)
	}
	if rep.Failed() {
		reportFailure(rep, shrink, shrinkRuns, kernel)
		return 1
	}
	fmt.Print(verdict)
	return 0
}

// splitSummary cuts rep.Summary() after its scenario and spec lines: the
// header, then the verdict — the ok line, or the failure block whose last
// line is the repro.
func splitSummary(rep *metrofuzz.Report) (head, verdict string) {
	sum := rep.Summary()
	i := strings.IndexByte(sum, '\n') + 1
	i += strings.IndexByte(sum[i:], '\n') + 1
	return sum[:i], sum[i:]
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

// reportFailure prints a failing report's block from its Summary and,
// when shrinking, the shrunk scenario in place of the block's repro line.
// The shrinker re-arms the kernel oracle so kernel-divergence failures
// still reproduce while shrinking.
func reportFailure(rep *metrofuzz.Report, shrink bool, shrinkRuns int, kernel bool) {
	_, block := splitSummary(rep)
	if !shrink {
		fmt.Print(block)
		return
	}
	// The block ends in the unshrunk repro line; the shrunk one replaces it.
	fmt.Print(block[:strings.LastIndexByte(block[:len(block)-1], '\n')+1])
	_, minRep := metrofuzz.Shrink(rep.Scenario, metrofuzz.Hooks{KernelOracle: kernel}, shrinkRuns)
	fmt.Printf("  shrunk: %s\n", metrofuzz.Describe(minRep))
	for _, f := range minRep.Failures {
		fmt.Printf("    %s\n", f)
	}
	fmt.Printf("  repro: %s\n", minRep.Repro())
}
