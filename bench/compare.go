package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// verdict is compare's judgement of one (metric, workload) pair.
type verdict string

const (
	verdictSame       verdict = "same"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// comparison is one row of compare's table.
type comparison struct {
	workload, metric string
	a, b             float64 // medians
	delta            float64 // (b-a)/|a|, signed so that positive is worse
	bound            float64
	verdict          verdict
}

// judge applies the regression rule (choosing-metrics guide, section 6):
// b is worse when its median is worse than a's by more than the bound;
// where either side's run-to-run spread is wider than the bound the pair
// is unresolved, not unchanged, unless every run of b reads better than
// every run of a.
func judge(def metricDef, a, b []float64) comparison {
	c := comparison{metric: def.Name, a: median(a), b: median(b), bound: def.Bound, verdict: verdictSame}
	sign := 1.0 // lower is better: growth is worse
	if def.Better == "higher" {
		sign = -1
	}
	if c.a != 0 {
		c.delta = sign * (c.b - c.a) / math.Abs(c.a)
	}
	switch {
	case c.delta > def.Bound:
		c.verdict = verdictWorse
	case math.Max(spread(a), spread(b)) > def.Bound && !allBetter(sign, a, b):
		c.verdict = verdictUnresolved
	}
	return c
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(sign float64, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

func readResultFile(path string) (resultFile, error) {
	var r resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles judges every end-to-end (metric, workload) pair of two
// result files, and holds the modelled-hardware metrics (simulated
// time, exact repeat) to equality. It returns the rows and the names of
// the exact metrics that differ.
func compareFiles(a, b resultFile) (rows []comparison, moved []string) {
	for _, w := range workloads {
		for _, def := range endToEnd {
			va, vb := a.EndToEnd[w.Name][def.Name], b.EndToEnd[w.Name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := judge(def, va, vb)
			c.workload = w.Name
			rows = append(rows, c)
		}
		la, lb := a.PerLayer[w.Name], b.PerLayer[w.Name]
		if la == nil || lb == nil || a.Seed != b.Seed {
			continue
		}
		var names []string
		for n := range la {
			if strings.HasPrefix(n, "nic.") {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			if la[n] != lb[n] {
				moved = append(moved, fmt.Sprintf("%s %s: %v -> %v", w.Name, n, la[n], lb[n]))
			}
		}
	}
	return rows, moved
}

// compareMain is `bench compare a.json b.json`: a is the parent's
// result file, b the change's. It exits 1 when any pair is worse, a
// modelled-hardware metric moved, or either file records a failed
// verification.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare parent.json change.json")
		return 2
	}
	var files [2]resultFile
	for i, path := range args {
		f, err := readResultFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench compare: %v\n", err)
			return 2
		}
		files[i] = f
	}
	return printComparison(files[0], files[1], stdout)
}

func printComparison(a, b resultFile, stdout io.Writer) int {
	rows, moved := compareFiles(a, b)
	fmt.Fprintf(stdout, "%-13s %-13s %14s %14s %9s %7s  %s\n", "workload", "metric", "parent", "change", "delta", "bound", "verdict")
	bad := 0
	for _, c := range rows {
		fmt.Fprintf(stdout, "%-13s %-13s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
			c.workload, c.metric, c.a, c.b, 100*c.delta, 100*c.bound, c.verdict)
		if c.verdict == verdictWorse {
			bad++
		}
	}
	fmt.Fprintln(stdout, "delta is signed so that positive is worse")
	for _, m := range moved {
		fmt.Fprintf(stdout, "modelled-hardware metric moved: %s\n", m)
		bad++
	}
	for _, f := range []resultFile{a, b} {
		for _, inc := range f.Incorrect {
			fmt.Fprintf(stdout, "verification failed in a result file: %s\n", inc)
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
