// Command bench is the METRO benchmark: the one harness every
// performance claim in this repository is measured with. It drives four
// workloads, from the cycle kernel to the metroserve HTTP API, entirely
// from outside the program under test (timing calls into public
// functions), verifies every output it times, and reports a fixed
// catalogue of end-to-end and per-layer metrics declared in the root
// BENCHMARK.json. See README.md in this directory.
//
// Usage:
//
//	go run ./bench -workload fig3_sweep -seed 1 -seconds 10 -trace 0
//	go run ./bench -seed 1                  # all four workloads, untraced then traced
//	go run ./bench compare a.json b.json    # regression verdict per (metric, workload)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one catalogue entry; the root BENCHMARK.json repeats the
// catalogue and TestCatalogueMatchesBenchmarkJSON keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports
// every one; what an "op" is on each workload is stated in workloads
// below and in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.05},
}

// perLayer metrics come from the traced run. A metric that does not
// apply to a workload reads 0 there (the result line must carry the
// whole catalogue on every workload); README.md lists which apply.
var perLayer = []metricDef{
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "op_p99_ms", Unit: "ms", Better: "lower"},

	{Name: "topo.build_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.build_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.build_allocs", Unit: "count", Better: "lower"},
	{Name: "netsim.bytes_per_endpoint", Unit: "B", Better: "lower"},
	{Name: "netsim.epilogue_us", Unit: "us", Better: "lower"},

	{Name: "clock.step_us_p50", Unit: "us", Better: "lower"},
	{Name: "clock.step_us_p99", Unit: "us", Better: "lower"},
	{Name: "clock.step_us_mean", Unit: "us", Better: "lower"},
	{Name: "clock.allocs_per_kcycle", Unit: "count", Better: "lower"},
	{Name: "clock.alloc_kb_per_kcycle", Unit: "kB", Better: "lower"},
	{Name: "clock.w2_speedup", Unit: "x", Better: "higher"},

	{Name: "kernel.eval_routers_us", Unit: "us", Better: "lower"},
	{Name: "kernel.eval_endpoints_us", Unit: "us", Better: "lower"},
	{Name: "kernel.commit_units_us", Unit: "us", Better: "lower"},
	{Name: "link.shuttle_us", Unit: "us", Better: "lower"},
	{Name: "traffic.driver_us", Unit: "us", Better: "lower"},
	{Name: "traffic.point_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "nic.msgs_completed", Unit: "count", Better: "higher"},
	{Name: "nic.delivered_ratio", Unit: "ratio", Better: "higher"},
	{Name: "nic.retries_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "nic.delivered_per_attempt", Unit: "ratio", Better: "higher"},
	{Name: "nic.latency_p50_cycles", Unit: "cycles", Better: "lower"},
	{Name: "nic.latency_p95_cycles", Unit: "cycles", Better: "lower"},
	{Name: "nic.accepted_load", Unit: "ratio", Better: "higher"},

	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "host.allocs_per_request", Unit: "count", Better: "lower"},
	{Name: "host.alloc_kb_per_request", Unit: "kB", Better: "lower"},

	{Name: "metrofuzz.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "metrofuzz.run_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "metrofuzz.build_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "metrofuzz.cycles_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "metrofuzz.oracles_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "metrofuzz.legs_per_job", Unit: "count", Better: "lower"},
	{Name: "metrofuzz.cycles_per_job", Unit: "cycles", Better: "lower"},
	{Name: "metrofuzz.canon_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.recorder_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "serve.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.sse_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.sse_frames_per_job", Unit: "count", Better: "lower"},
	{Name: "serve.sse_dropped_frames", Unit: "count", Better: "lower"},
	{Name: "serve.queue_wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "serve.job_duration_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "serve.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.handler_hit_us_p99", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.get_by_id_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.key_us", Unit: "us", Better: "lower"},
	{Name: "serve.enqueued", Unit: "count", Better: "lower"},
	{Name: "serve.executed", Unit: "count", Better: "lower"},
	{Name: "serve.coalesced", Unit: "count", Better: "lower"},
	{Name: "serve.rejected_full", Unit: "count", Better: "lower"},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher"},
	{Name: "serve.cache_misses", Unit: "count", Better: "lower"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "serve.cache_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.result_bytes_mean", Unit: "B", Better: "lower"},
	{Name: "metrics.scrape_ms_p50", Unit: "ms", Better: "lower"},
}

// workloadDef names one workload, why it exists, and its entry point.
type workloadDef struct {
	Name string
	Why  string
	run  func(runConfig) (*outcome, error)
}

var workloads = []workloadDef{
	{"fig3_sweep", "Paper Fig. 3 as metrosim runs it: 64 endpoints, default engine, Build per point; ~2 MB fits cache, so router Eval and traffic/nic allocation dominate. Op = one load point.", runFig3},
	{"scale4k_step", "4096 endpoints on the compiled kernel, closed loop: ~140 MB working set is memory-bound, so state layout, unit dispatch and the link shuttle do the work. Op = one Engine.Step.", runScale4k},
	{"serve_cold", "Distinct fault-free specs through a fresh metroserve over loopback HTTP, 2 clients: every job is a miss and pays queue, Build, cycles, oracles, cache write and SSE. Op = one job.", runServeCold},
	{"serve_warm", "Repeat submissions as field-order permutations plus GET by id against a primed server: zero simulation; canonicalisation, Key, cache read and net/http do the work. Op = one request.", runServeWarm},
}

// runConfig is one invocation's knobs.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// quick shrinks every repetition to 1/20 of its work and runs one:
	// a smoke run for the harness tests, never a measurement.
	quick  bool
	outDir string
	golden goldenFile
	// updateGolden records this run's digests instead of checking them.
	updateGolden bool
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int64
	problems          []string           // correctness failures, empty when correct
	values            map[string]float64 // metric name -> value
	notes             []string           // sample counts, spreads, sizes: printed, not gated
	goldenKey         string
	golden            goldenEntry // this run's digests, for -update-golden
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) problemf(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runOne executes one workload and renders the contract's result line.
func runOne(w workloadDef, cfg runConfig) (resultLine, *outcome, error) {
	out, err := w.run(cfg)
	if err != nil {
		return resultLine{}, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := resultLine{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	if !line.Correct && line.Failed == 0 {
		// A failed structural or golden check condemns the whole run.
		line.Failed = line.Attempted
	}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: out.values[d.Name], Unit: d.Unit}
	}
	return line, out, nil
}

// printReport writes the human-readable table: every metric by name and
// unit, then the notes and any correctness problems.
func printReport(w io.Writer, name string, cfg runConfig, line resultLine, out *outcome) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s\n", name, cfg.seed, mode)
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := line.Metrics[n]
		if cfg.trace && m.Value == 0 {
			continue // not measured on this workload
		}
		fmt.Fprintf(w, "  %-34s %16s %s\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", line.Attempted, line.Failed, line.Correct)
	for _, p := range out.problems {
		fmt.Fprintf(w, "  FAIL: %s\n", p)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (fig3_sweep, scale4k_step, serve_cold, serve_warm); empty runs all four, each in a fresh child process")
	seed := fs.Int64("seed", 1, "derives every traffic seed, net seed and spec list")
	seconds := fs.Float64("seconds", 10, "length of the timed region")
	trace := fs.Int("trace", 0, "1 runs the traced repetition and reports the per-layer metrics")
	quick := fs.Bool("quick", false, "smoke run: one repetition at 1/20 of the work")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for trace files and the all-workload result file")
	goldenPath := fs.String("golden", filepath.Join("bench", "golden", "seed1.json"), "golden digest file")
	update := fs.Bool("update-golden", false, "record this run's digests in the golden file instead of checking them")
	runs := fs.Int("runs", 1, "all-workload mode: untraced runs per workload (seeds seed, seed+1, ...)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace wants 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	if *workload == "" {
		return runAll(*seed, *seconds, *runs, *quick, *outDir, stdout, stderr)
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	golden, err := loadGolden(*goldenPath)
	if err != nil && !(*update && errors.Is(err, os.ErrNotExist)) {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick,
		outDir: *outDir, golden: golden, updateGolden: *update,
	}
	line, out, err := runOne(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *update && out.goldenKey != "" {
		if golden == nil {
			golden = goldenFile{}
		}
		golden[out.goldenKey] = out.golden
		if err := saveGolden(*goldenPath, golden); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	printReport(stdout, w.Name, cfg, line, out)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !line.Correct {
		return 1
	}
	return 0
}

// resultFile is what all-workload mode writes and `bench compare`
// reads: per workload, per metric, one value per run.
type resultFile struct {
	Seed      int64                           `json:"seed"`
	Seconds   float64                         `json:"seconds"`
	EndToEnd  map[string]map[string][]float64 `json:"end_to_end"` // workload -> metric -> runs
	PerLayer  map[string]map[string]float64   `json:"per_layer"`  // workload -> metric
	Incorrect []string                        `json:"incorrect,omitempty"`
}

// runAll runs every workload in a fresh child process each (so no
// workload inherits another's heap, page cache state or goroutines):
// `runs` untraced runs, then one traced run. It prints every child's
// report and writes the collected values to outDir/result.json.
func runAll(seed int64, seconds float64, runs int, quick bool, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	res := resultFile{Seed: seed, Seconds: seconds,
		EndToEnd: map[string]map[string][]float64{}, PerLayer: map[string]map[string]float64{}}
	child := func(w string, s int64, trace int) (resultLine, bool) {
		args := []string{"-workload", w, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir}
		if quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = stderr
		data, runErr := cmd.Output()
		stdout.Write(data)
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			fmt.Fprintf(stderr, "bench: %s: no result line: %v (%v)\n", w, err, runErr)
			return line, false
		}
		return line, runErr == nil && line.Correct && line.Failed == 0
	}
	for _, w := range workloads {
		res.EndToEnd[w.Name] = map[string][]float64{}
		res.PerLayer[w.Name] = map[string]float64{}
		for r := 0; r < runs; r++ {
			line, ok := child(w.Name, seed+int64(r), 0)
			if !ok {
				res.Incorrect = append(res.Incorrect, fmt.Sprintf("%s seed %d", w.Name, seed+int64(r)))
			}
			for n, m := range line.Metrics {
				res.EndToEnd[w.Name][n] = append(res.EndToEnd[w.Name][n], m.Value)
			}
		}
		line, ok := child(w.Name, seed, 1)
		if !ok {
			res.Incorrect = append(res.Incorrect, w.Name+" traced")
		}
		for n, m := range line.Metrics {
			res.PerLayer[w.Name][n] = m.Value
		}
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		if err = os.MkdirAll(outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(outDir, "result.json"), append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: writing result file: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "results: %s\n", filepath.Join(outDir, "result.json"))
	if len(res.Incorrect) > 0 {
		fmt.Fprintf(stderr, "bench: verification failed: %s\n", strings.Join(res.Incorrect, "; "))
		return 1
	}
	return 0
}
