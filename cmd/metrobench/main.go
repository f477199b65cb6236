// metrobench runs the repository's benchmarks and appends one
// BENCH_<n>.json snapshot to the perf trajectory directory. Each
// snapshot records every parsed benchmark (ns/op, B/op, allocs/op)
// plus the derived tracing overhead — the congested-network cycle cost
// with the flight recorder attached versus without — so performance
// history accumulates as reviewable files instead of folklore.
//
// Usage:
//
//	metrobench                          # full benchmark sweep into perf/
//	metrobench -bench SteadyCycle       # subset by benchmark name
//	metrobench -benchtime 100x -count 3 # quick, or statistically sturdier
//	metrobench -stdout                  # the JSON alone on stdout, summary on stderr, write nothing
//	metrobench -scale 4096,65536        # kernel scaling curve (topo.Scale)
//	metrobench -bench none -scale 4096  # curve only, skip the bench sweep
//	metrobench -index 4 -force          # pin the index, overwrite existing
//
// Snapshots never overwrite silently: writing to an existing
// BENCH_<n>.json (only reachable by pinning -index) fails unless -force
// is given.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name       string  `json:"name"` // includes the -<GOMAXPROCS> suffix
	Package    string  `json:"package"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp int64   `json:"bytes_per_op"`
	AllocsOp   int64   `json:"allocs_per_op"`
}

// Overhead compares BenchmarkCongestedStep — the congested-network
// cycle on the engine's one path — with a variant of it that attaches
// one observability layer.
type Overhead struct {
	DisabledNsPerCycle float64 `json:"disabled_ns_per_cycle"`
	EnabledNsPerCycle  float64 `json:"enabled_ns_per_cycle"`
	OverheadPct        float64 `json:"overhead_pct"`
}

// Snapshot is one BENCH_<n>.json file.
type Snapshot struct {
	Index      int          `json:"index"`
	Date       string       `json:"date"`
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	CPUs       int          `json:"cpus"`
	Bench      string       `json:"bench_pattern"`
	Benchtime  string       `json:"benchtime"`
	Count      int          `json:"count"`
	Benchmarks []Benchmark  `json:"benchmarks"`
	Tracing    *Overhead    `json:"tracing_overhead,omitempty"` // flight recorder attached
	Metrics    *Overhead    `json:"metrics_overhead,omitempty"` // engine gauges sampled on the cycle grid
	Scale      []ScalePoint `json:"scale,omitempty"`
}

func main() {
	bench := flag.String("bench", ".", "benchmark name pattern (go test -bench)")
	pkgs := flag.String("pkgs", "metro/...", "packages to benchmark (import paths)")
	benchtime := flag.String("benchtime", "1s", "per-benchmark budget (go test -benchtime)")
	count := flag.Int("count", 1, "repetitions per benchmark (go test -count)")
	dir := flag.String("dir", "perf", "perf trajectory directory")
	stdout := flag.Bool("stdout", false, "print the snapshot JSON instead of writing a file (the summary goes to stderr)")
	scale := flag.String("scale", "", "comma-separated endpoint counts for the kernel scaling curve (empty = off)")
	scaleRadix := flag.Int("scale-radix", 4, "router radix for the scaling curve (topo.Scale)")
	scaleCycles := flag.Int("scale-cycles", 256, "measured cycles per scaling point")
	scaleWorkers := flag.String("scale-workers", "1,0,2,4,8", "comma-separated worker counts swept per scaling size (1 = inline, the baseline; 0 = the engine chooses, recorded as partitions)")
	index := flag.Int("index", 0, "snapshot index to write (0 = next free BENCH_<n>.json)")
	force := flag.Bool("force", false, "allow overwriting an existing BENCH_<n>.json")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "metrobench: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	var benchmarks []Benchmark
	if *bench != "none" {
		args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem",
			"-benchtime", *benchtime, "-count", strconv.Itoa(*count)}
		args = append(args, strings.Fields(*pkgs)...)
		out, err := exec.Command("go", args...).CombinedOutput()
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrobench: go %s: %v\n%s", strings.Join(args, " "), err, out)
			os.Exit(1)
		}
		benchmarks = parse(string(out))
		if len(benchmarks) == 0 {
			fmt.Fprintf(os.Stderr, "metrobench: no benchmarks matched %q in %s\n%s", *bench, *pkgs, out)
			os.Exit(1)
		}
	} else if *scale == "" {
		fmt.Fprintf(os.Stderr, "metrobench: -bench none without -scale would write an empty snapshot\n")
		os.Exit(2)
	}

	var scalePoints []ScalePoint
	if *scale != "" {
		sizes, err := parseIntList("scale", *scale)
		if err == nil {
			var workers []int
			workers, err = parseIntList("scale-workers", *scaleWorkers)
			if err == nil {
				scalePoints, err = runScale(sizes, *scaleRadix, *scaleCycles, workers)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrobench: %v\n", err)
			os.Exit(1)
		}
	}

	snap := Snapshot{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		Bench:      *bench,
		Benchtime:  *benchtime,
		Count:      *count,
		Benchmarks: benchmarks,
		Tracing:    overhead(benchmarks, "BenchmarkCongestedStepTraced"),
		Metrics:    overhead(benchmarks, "BenchmarkCongestedStepMetrics"),
		Scale:      scalePoints,
	}

	if *stdout {
		snap.Index = pickIndex(*index, *dir)
		emit(os.Stdout, snap)
		report(os.Stderr, snap)
		return
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "metrobench: %v\n", err)
		os.Exit(1)
	}
	snap.Index = pickIndex(*index, *dir)
	path := filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", snap.Index))
	if _, err := os.Stat(path); err == nil && !*force {
		fmt.Fprintf(os.Stderr, "metrobench: %s exists; pass -force to overwrite\n", path)
		os.Exit(1)
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metrobench: %v\n", err)
		os.Exit(1)
	}
	emit(f, snap)
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "metrobench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(snap.Benchmarks))
	report(os.Stdout, snap)
}

func emit(f *os.File, snap Snapshot) {
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintf(os.Stderr, "metrobench: %v\n", err)
		os.Exit(1)
	}
}

// report prints the human summary table to w.
func report(w io.Writer, snap Snapshot) {
	for _, b := range snap.Benchmarks {
		fmt.Fprintf(w, "  %-44s %12.1f ns/op %8d B/op %6d allocs/op\n",
			b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsOp)
	}
	if snap.Tracing != nil {
		fmt.Fprintf(w, "  tracing overhead: %.1f ns/cycle -> %.1f ns/cycle (%+.1f%%)\n",
			snap.Tracing.DisabledNsPerCycle, snap.Tracing.EnabledNsPerCycle,
			snap.Tracing.OverheadPct)
	}
	if snap.Metrics != nil {
		fmt.Fprintf(w, "  metrics overhead: %.1f ns/cycle -> %.1f ns/cycle (%+.1f%%)\n",
			snap.Metrics.DisabledNsPerCycle, snap.Metrics.EnabledNsPerCycle,
			snap.Metrics.OverheadPct)
	}
	for _, p := range snap.Scale {
		fmt.Fprintf(w, "  scale %6d eps (radix %d, %d routers) w=%d p=%d: %10.0f ns/cycle %8.1f cycles/s %6.2f ns/ep/cycle %6d B/ep\n",
			p.Endpoints, p.Radix, p.Routers, p.Workers, p.Partitions,
			p.NsPerCycle, p.CyclesPerSec, p.NsPerEndpointCycle, p.BytesPerEndpoint)
	}
}

// benchLine matches `BenchmarkName-8  1000  123 ns/op  45 B/op  6 allocs/op`
// (the -benchmem columns are optional for benchmarks reporting none).
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

// parse extracts benchmark results from go test output, attributing
// each to the preceding `pkg:` header. Repeated runs (-count > 1) of
// one benchmark record the minimum ns/op — on a shared box the noise
// is one-sided (contention only ever slows a run down), so the
// fastest repetition is the least-contended estimate of the true
// cost; the memory columns, which timing noise cannot perturb, are
// averaged.
func parse(out string) []Benchmark {
	type acc struct {
		Benchmark
		runs int64
	}
	byKey := map[string]*acc{}
	var order []string
	pkg := ""
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		key := pkg + "." + m[1]
		a := byKey[key]
		if a == nil {
			a = &acc{Benchmark: Benchmark{Name: m[1], Package: pkg}}
			byKey[key] = a
			order = append(order, key)
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		a.Iterations += iters
		if a.runs == 0 || ns < a.NsPerOp {
			a.NsPerOp = ns
		}
		if m[4] != "" {
			bpo, _ := strconv.ParseInt(m[4], 10, 64)
			apo, _ := strconv.ParseInt(m[5], 10, 64)
			a.BytesPerOp += bpo
			a.AllocsOp += apo
		}
		a.runs++
	}
	sort.Strings(order)
	benchmarks := make([]Benchmark, 0, len(order))
	for _, key := range order {
		a := byKey[key]
		a.Iterations /= a.runs
		a.BytesPerOp /= a.runs
		a.AllocsOp /= a.runs
		benchmarks = append(benchmarks, a.Benchmark)
	}
	return benchmarks
}

// overhead derives the cost of one observability layer from the
// congested-step pair — BenchmarkCongestedStep and the named variant,
// matched by bare name (GOMAXPROCS suffix stripped) — or returns nil
// unless both ran. The BENCH_5 acceptance bar holds the metrics variant
// at or under 2%.
func overhead(benchmarks []Benchmark, variant string) *Overhead {
	var disabled, enabled float64
	for _, b := range benchmarks {
		switch strings.SplitN(b.Name, "-", 2)[0] {
		case "BenchmarkCongestedStep":
			disabled = b.NsPerOp
		case variant:
			enabled = b.NsPerOp
		}
	}
	if disabled == 0 || enabled == 0 {
		return nil
	}
	return &Overhead{
		DisabledNsPerCycle: disabled,
		EnabledNsPerCycle:  enabled,
		OverheadPct:        (enabled - disabled) / disabled * 100,
	}
}

// pickIndex resolves the snapshot index: a pinned -index wins, otherwise
// the next free slot in the trajectory.
func pickIndex(pinned int, dir string) int {
	if pinned > 0 {
		return pinned
	}
	return nextIndex(dir)
}

// nextIndex returns 1 + the highest existing BENCH_<n>.json index.
func nextIndex(dir string) int {
	next := 1
	entries, err := os.ReadDir(dir)
	if err != nil {
		return next
	}
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "BENCH_%d.json", &n); err == nil && n >= next {
			next = n + 1
		}
	}
	return next
}
