package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"metro/internal/metrofuzz"
	"metro/internal/netsim"
	"metro/internal/nic"
	"metro/internal/serve"
	"metro/internal/topo"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianPercentileSpread(t *testing.T) {
	v := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(v); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(v, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := percentile(v, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := percentile(v, 90); !near(got, 9.1) {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	q1, q3 := quartiles(v)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(v); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// Python: statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0].
	q1, q3 = quartiles([]float64{13, 10, 11})
	if !near(q1, 10) || !near(q3, 13) {
		t.Errorf("quartiles of three = %v, %v, want 10, 13", q1, q3)
	}
	if got := spread([]float64{4}); got != 0 {
		t.Errorf("spread of one run = %v, want 0", got)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty samples must read 0")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // 10 samples beyond p99.9
		{9999, 99},
		{1000, 99}, // exactly ten beyond p99
		{999, 95},
		{200, 95},
		{199, 90},
		{40, 75},
		{39, 50}, // too few for any tail: the median
	} {
		_, p := tailPercentile(seq(c.n), 10)
		if p != c.want {
			t.Errorf("%d samples: tail percentile p%v, want p%v", c.n, p, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "rep", start: 0, end: 100, parent: -1},
		{name: "step", start: 10, end: 60, parent: 0},
		{name: "eval", start: 10, end: 40, parent: 1},
		{name: "step", start: 60, end: 90, parent: 0},
		{name: "open", start: 95, end: -1, parent: 0},
	}
	total, self := selfTimes(spans)
	if total["step"] != 80 || self["step"] != 50 || self["rep"] != 20 || self["eval"] != 30 {
		t.Errorf("total %v self %v", total, self)
	}
}

func TestSampleRingKeepsLatest(t *testing.T) {
	r := newSampleRing(4)
	r.add(1, 2, 3)
	if got := r.values(); len(got) != 3 {
		t.Fatalf("values = %v", got)
	}
	r.add(4, 5, 6)
	got := sorted(r.values())
	if len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Errorf("ring holds %v, want the latest four", got)
	}
}

// recordedStream is an event stream as metroserve writes it: progress
// frames, live gauge frames, then the terminal done frame.
const recordedStream = "event: progress\ndata: {\"cycle\":0,\"offered\":0,\"completed\":0,\"delivered\":0}\n\n" +
	"event: gauge\ndata: {\"cycle\":1,\"kind\":\"gauge-open-conns\",\"stage\":-1,\"value\":3}\n\n" +
	"event: progress\r\ndata: {\"cycle\":256,\"offered\":12,\"completed\":9,\"delivered\":9}\r\n\r\n" +
	"event: done\ndata: {\"id\":\"abc\",\"status\":\"passed\"}\n\n" +
	"event: progress\ndata: {\"after\":\"done\"}\n\n"

func TestSSEParserRecordedStream(t *testing.T) {
	br := bufio.NewReader(strings.NewReader(recordedStream))
	var events []string
	for {
		f, err := readSSEFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, f.event)
	}
	if got := strings.Join(events, ","); got != "progress,gauge,progress,done,progress" {
		t.Errorf("frames = %s", got)
	}
	done, frames, err := readSSEUntilDone(strings.NewReader(recordedStream))
	if err != nil || frames != 4 || string(done) != `{"id":"abc","status":"passed"}` {
		t.Errorf("done = %q after %d frames, err %v", done, frames, err)
	}
	if _, _, err := readSSEUntilDone(strings.NewReader("event: progress\ndata: {}\n\n")); err == nil {
		t.Error("a stream without a done frame must be an error")
	}
	if _, err := readSSEFrame(bufio.NewReader(strings.NewReader("event: done\ndata: {"))); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated frame: err = %v, want unexpected EOF", err)
	}
}

// A subscriber that opens the stream after the job finished gets the
// whole history replayed, ending in the done frame whose data is the
// stored result.
func TestSSELateSubscriberReplay(t *testing.T) {
	s := startServer(0)
	defer s.close()
	line := genSpecs(1, 1).lines[0]
	first, err := s.submitWait(line)
	if err != nil || first.code != http.StatusOK {
		t.Fatalf("submit: %v, HTTP %d", err, first.code)
	}
	late, frames, err := s.submitStream(line, nil, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if frames < 2 {
		t.Errorf("replay held %d frames, want progress history plus done", frames)
	}
	if !bytes.Equal(late.body, first.body) {
		t.Errorf("replayed done frame differs from the stored result:\n%s\n%s", late.body, first.body)
	}
	if _, err := s.stop(); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationsKeepKey(t *testing.T) {
	specs := genSpecs(3, 20)
	rng := rand.New(rand.NewSource(5))
	distinct := 0
	for i, line := range specs.lines {
		for k := 0; k < 10; k++ {
			p := permuteSpec(line, rng)
			if p != line {
				distinct++
			}
			scn, err := metrofuzz.DecodeSpecStrict(p)
			if err != nil {
				t.Fatalf("spec %d permutation %q: %v", i, p, err)
			}
			if key := serve.Key(metrofuzz.EncodeSpec(scn), serve.EngineReference, false); key != specs.keys[i] {
				t.Fatalf("spec %d permutation %q has key %s, want %s", i, p, key, specs.keys[i])
			}
		}
	}
	if distinct < 190 {
		t.Errorf("only %d of 200 permutations differ from the canonical line", distinct)
	}
}

func TestSpecListIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := genSpecs(1, 30), genSpecs(1, 30), genSpecs(2, 30)
	if a.digest != b.digest || strings.Join(a.lines, "\n") != strings.Join(b.lines, "\n") {
		t.Error("the same seed gave two spec lists")
	}
	if a.digest == c.digest {
		t.Error("seeds 1 and 2 gave the same spec list")
	}
	seen := map[string]bool{}
	for i, s := range a.scenarios {
		if len(s.Faults) != 0 {
			t.Errorf("spec %d kept its fault plan", i)
		}
		if seen[a.keys[i]] {
			t.Errorf("spec %d repeats an earlier key", i)
		}
		seen[a.keys[i]] = true
	}
}

func TestSelectKernel(t *testing.T) {
	// Named by reflection only: the test must compile on both sides of
	// the refactor that removes Params.Kernel.
	p := netsim.Params{Spec: topo.Figure1()}
	selectKernel(&p)
	n, err := netsim.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Engine.Kernel() == nil {
		t.Error("selectKernel did not select the compiled kernel")
	}
}

// kernelRun steps a 64-endpoint closed-loop network on the compiled
// kernel and returns its result digest.
func kernelRun(t *testing.T, decorate bool) (string, *timedKernel) {
	t.Helper()
	stream := newResultStream(false)
	spec := topo.Figure3()
	p := netsim.Params{
		Spec: spec, Width: 8, DataPipe: 1, LinkDelay: 1, FastReclaim: true,
		Seed: 7, RetryLimit: 1000, OnResult: func(r nic.Result) { stream.add(r) },
	}
	selectKernel(&p)
	n, err := netsim.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var tk *timedKernel
	if decorate {
		routers, err := routerUnits(spec)
		if err != nil {
			t.Fatal(err)
		}
		var undo func()
		tk, undo = decorateKernel(n, routers, newSpanBuf(time.Now(), 1, 4*600))
		defer undo()
	}
	rng := rand.New(rand.NewSource(11))
	payload := make([]byte, 20)
	for c := 0; c < 600; c++ {
		if c < 400 {
			src := rng.Intn(spec.Endpoints)
			n.Send(src, (src+1+rng.Intn(spec.Endpoints-1))%spec.Endpoints, payload)
		}
		n.Engine.Step()
	}
	if stream.completed == 0 || stream.delivered != stream.completed {
		t.Fatalf("completed %d delivered %d", stream.completed, stream.delivered)
	}
	return stream.digest(), tk
}

func TestKernelDecoratorLeavesRunBitIdentical(t *testing.T) {
	plain, _ := kernelRun(t, false)
	decorated, tk := kernelRun(t, true)
	if plain != decorated {
		t.Errorf("decorated run digest %s, undecorated %s", decorated, plain)
	}
	if tk == nil {
		t.Fatal("no kernel installed: the decorator degraded to step-only")
	}
	total, _ := selfTimes(tk.buf.spans)
	for _, name := range []string{"kernel.eval_routers", "kernel.eval_endpoints", "kernel.commit_units", "link.shuttle"} {
		if total[name] == 0 {
			t.Errorf("no %s spans", name)
		}
	}
}

func quickConfig(t *testing.T, trace bool) runConfig {
	t.Helper()
	golden, err := loadGolden(filepath.Join("golden", "seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{seed: 1, seconds: 1, trace: trace, quick: true, outDir: t.TempDir(), golden: golden}
}

// A -quick run of every workload, untraced and traced, passes its
// checks (golden digests included) and reports the whole catalogue.
func TestQuickRunOfEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := quickConfig(t, trace)
			line, out, err := runOne(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", w.Name, trace, line.Correct, line.Attempted, line.Failed, out.problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(line.Metrics), len(defs))
			}
			for name := range out.values {
				if _, ok := line.Metrics[name]; !ok && inCatalogue(name) == trace {
					t.Errorf("%s trace=%v: value %q is not in the catalogue", w.Name, trace, name)
				}
			}
			for _, d := range endToEnd {
				if !trace && !(line.Metrics[d.Name].Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, line.Metrics[d.Name].Value)
				}
			}
			if trace {
				if line.Metrics["trace_overhead_pct"].Value == 0 {
					t.Errorf("%s: no trace overhead measured", w.Name)
				}
				if _, err := os.Stat(filepath.Join(cfg.outDir, w.Name+".trace.json")); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
			}
		}
	}
}

// inCatalogue reports whether name is a per-layer metric.
func inCatalogue(name string) bool {
	for _, d := range perLayer {
		if d.Name == name {
			return true
		}
	}
	return false
}

// A digest that moved fails the run and condemns every operation.
func TestGoldenMismatchFailsTheRun(t *testing.T) {
	cfg := quickConfig(t, false)
	tampered := goldenFile{}
	for k, v := range cfg.golden {
		v.Digest = "00" + v.Digest[2:]
		tampered[k] = v
	}
	cfg.golden = tampered
	w, _ := findWorkload("fig3_sweep")
	line, out, err := runOne(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Failed != line.Attempted {
		t.Errorf("correct=%v failed=%d attempted=%d, want an incorrect run with every operation failed", line.Correct, line.Failed, line.Attempted)
	}
	if len(out.problems) == 0 || !strings.Contains(out.problems[0], "golden digest mismatch") {
		t.Errorf("problems = %v", out.problems)
	}
	// Another seed has no golden and is held to the structural checks.
	cfg.seed = 2
	if line, _, err = runOne(w, cfg); err != nil || !line.Correct {
		t.Errorf("seed 2: correct=%v err=%v", line.Correct, err)
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	var out, errb bytes.Buffer
	if code := benchMain([]string{"-workload", "nope"}, &out, &errb); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if code := benchMain([]string{"-workload", "fig3_sweep", "-trace", "7"}, &out, &errb); code != 2 {
		t.Errorf("bad -trace: exit %d, want 2", code)
	}
	if code := benchMain([]string{"-workload", "fig3_sweep", "-golden", filepath.Join(t.TempDir(), "none.json")}, &out, &errb); code != 2 {
		t.Errorf("missing golden file: exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("a refused invocation printed a result: %s", out.String())
	}
}

// The driver's invocation shape: double-dash flags, one JSON object as
// the last line of standard output.
func TestResultLineContract(t *testing.T) {
	var out, errb bytes.Buffer
	code := benchMain([]string{"--workload", "serve_warm", "--seed", "1", "--seconds", "1", "--trace", "0",
		"-quick", "-out", t.TempDir(), "-golden", filepath.Join("golden", "seed1.json")}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(raw) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", raw)
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(endToEnd) {
		t.Errorf("result line %+v", line)
	}
	for _, d := range endToEnd {
		if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: %+v", d.Name, m)
		}
	}
}

// BENCHMARK.json at the root declares the same catalogue the harness
// prints.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, harness {%s %s}", i, decl.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, harness has %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: declared %+v, harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	setup := false
	for _, d := range decl.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" || decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", decl.Paths, decl.RunSeconds)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"lower metric grew past the bound", lower, []float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, verdictWorse},
		{"lower metric within the bound", lower, []float64{10, 10.1, 9.9}, []float64{10.5, 10.6, 10.4}, verdictSame},
		{"higher metric fell past the bound", higher, []float64{100, 101, 99}, []float64{85, 86, 84}, verdictWorse},
		{"higher metric rose", higher, []float64{100, 101, 99}, []float64{130, 131, 129}, verdictSame},
		{"wide spread and overlapping runs", lower, []float64{8, 10, 12, 9, 11}, []float64{9, 10.5, 12.5, 8.5, 11}, verdictUnresolved},
		{"wide spread but every run better", lower, []float64{8, 10, 12, 9, 11}, []float64{5, 6, 7, 5.5, 6.5}, verdictSame},
		{"single runs have no spread", lower, []float64{10}, []float64{10.9}, verdictSame},
	} {
		if got := judge(c.def, c.a, c.b); got.verdict != c.want {
			t.Errorf("%s: verdict %s (delta %+.3f), want %s", c.name, got.verdict, got.delta, c.want)
		}
	}
}

func TestCompareFilesAndExitCode(t *testing.T) {
	mk := func(rate, p50 float64, completed float64) resultFile {
		r := resultFile{Seed: 1, Seconds: 10,
			EndToEnd: map[string]map[string][]float64{}, PerLayer: map[string]map[string]float64{}}
		for _, w := range workloads {
			r.EndToEnd[w.Name] = map[string][]float64{
				"setup_s": {1, 1.01, 0.99}, "ops_per_s": {rate, rate * 1.01, rate * 0.99},
				"op_p50_ms": {p50, p50 * 1.01, p50 * 0.99}, "heap_live_mb": {50, 50, 50},
			}
			r.PerLayer[w.Name] = map[string]float64{"nic.msgs_completed": completed, "clock.step_us_p50": rate}
		}
		return r
	}
	dir := t.TempDir()
	write := func(name string, r resultFile) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.json", mk(100, 10, 6000))
	var out, errb bytes.Buffer
	if code := compareMain([]string{parent, write("same.json", mk(103, 9.8, 6000))}, &out, &errb); code != 0 {
		t.Errorf("a change within every bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{parent, write("slow.json", mk(60, 10, 6000))}, &out, &errb); code != 1 {
		t.Errorf("a 40%% slower change: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("no worse row:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{parent, write("model.json", mk(100, 10, 6001))}, &out, &errb); code != 1 {
		t.Errorf("a moved modelled-hardware metric: exit %d, want 1", code)
	}
	bad := mk(100, 10, 6000)
	bad.Incorrect = []string{"serve_cold seed 1"}
	if code := compareMain([]string{parent, write("bad.json", bad)}, &out, &errb); code != 1 {
		t.Errorf("a result file with a failed verification: exit %d, want 1", code)
	}
	if code := compareMain([]string{parent}, &out, &errb); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
	rows, moved := compareFiles(mk(100, 10, 6000), mk(100, 10, 6000))
	if len(rows) != len(workloads)*len(endToEnd) || len(moved) != 0 {
		t.Errorf("%d rows, moved %v", len(rows), moved)
	}
}
