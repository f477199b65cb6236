package main

import (
	"fmt"
	"time"

	"metro/internal/netsim"
	"metro/internal/nic"
	"metro/internal/stats"
	"metro/internal/topo"
	"metro/internal/traffic"
)

// fig3_sweep sizes. One repetition is the paper's seven-point load
// sweep; the points are shorter than metrosim's defaults so that a
// ten-second run holds several repetitions (see README.md, "Sizing").
const (
	fig3WarmupCycles  = 1500
	fig3MeasureCycles = 6000
	fig3MsgBytes      = 20
)

var fig3Loads = []float64{0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9}

// minReps is the fewest repetitions a timed region may hold, however
// slow the host.
const minReps = 3

// scaled shrinks a work size for -quick smoke runs.
func (cfg runConfig) scaled(n int) int {
	if cfg.quick {
		n /= 20
		if n < 1 {
			n = 1
		}
	}
	return n
}

// repeat runs rep until the time box is spent (and at least minReps
// times), or exactly once for a -quick run.
func (cfg runConfig) repeat(rep func(i int) error) (int, error) {
	start := time.Now()
	for i := 0; ; i++ {
		if cfg.quick && i == 1 {
			return i, nil
		}
		if i >= minReps && time.Since(start).Seconds() >= cfg.seconds {
			return i, nil
		}
		if err := rep(i); err != nil {
			return i, err
		}
	}
}

// fig3Point is the RunSpec of one load point, exactly as cmd/metrosim
// assembles it for `-network fig3` with default flags.
func (cfg runConfig) fig3Point(load float64, onResult func(nic.Result)) traffic.RunSpec {
	return traffic.RunSpec{
		Net: netsim.Params{
			Spec: topo.Figure3(), Width: 8, DataPipe: 1, LinkDelay: 1,
			FastReclaim: true, CascadeWidth: 1, Seed: cfg.seed, RetryLimit: 1000,
			OnResult: onResult,
		},
		Load: load, MsgBytes: fig3MsgBytes, Outstanding: 1,
		WarmupCycles:  uint64(cfg.scaled(fig3WarmupCycles)),
		MeasureCycles: uint64(cfg.scaled(fig3MeasureCycles)),
		Seed:          cfg.seed + 1000,
	}
}

// fig3Rep is one sweep's measurements.
type fig3Rep struct {
	seconds float64
	cycles  int64
	pointMs []float64
	stream  *resultStream
	ids     map[uint64]struct{} // per point: IDs restart with every Build
	dupes   int64
	last    stats.LoadPoint // the load-0.90 point
}

func (r *fig3Rep) rate() float64 { return float64(r.cycles) / r.seconds }

// observe folds one completion into the digest and the exactly-once
// check.
func (r *fig3Rep) observe(res nic.Result) {
	r.stream.add(res)
	if _, seen := r.ids[res.Msg.ID]; seen {
		r.dupes++
	}
	r.ids[res.Msg.ID] = struct{}{}
}

// fig3Sweep runs one untraced repetition through traffic.Run, the call
// metrosim makes.
func (cfg runConfig) fig3Sweep() (*fig3Rep, error) {
	rep := &fig3Rep{stream: newResultStream(false)}
	start := time.Now()
	for _, load := range fig3Loads {
		rep.ids = map[uint64]struct{}{}
		spec := cfg.fig3Point(load, rep.observe)
		t0 := time.Now()
		p, err := traffic.Run(spec)
		if err != nil {
			return nil, fmt.Errorf("traffic.Run load %.2f: %w", load, err)
		}
		rep.pointMs = append(rep.pointMs, time.Since(t0).Seconds()*1e3)
		rep.cycles += int64(spec.WarmupCycles + spec.MeasureCycles)
		rep.last = p
	}
	rep.seconds = time.Since(start).Seconds()
	rep.ids = nil
	return rep, nil
}

// fig3SweepTraced runs the same repetition with a span around every
// layer boundary reachable from outside. traffic.Run owns its cycle
// loop, so the traced path assembles the same run from the public
// pieces Run itself uses (ClosedLoop, Build, Bind, Engine.Step); the
// digest check against the untraced repetition proves the two are the
// same simulation.
func (cfg runConfig) fig3SweepTraced(buf *spanBuf, op int64, stepUs *[]float64) (*fig3Rep, error) {
	rep := &fig3Rep{stream: newResultStream(false)}
	root := buf.begin("rep", -1, op)
	start := time.Now()
	routers, err := routerUnits(topo.Figure3())
	if err != nil {
		return nil, err
	}
	for _, load := range fig3Loads {
		rep.ids = map[uint64]struct{}{}
		spec := cfg.fig3Point(load, nil)
		driver := &traffic.ClosedLoop{
			Load: spec.Load, MsgBytes: spec.MsgBytes, Outstanding: spec.Outstanding,
			Seed: spec.Seed, Warmup: spec.WarmupCycles,
		}
		spec.Net.OnResult = func(res nic.Result) {
			driver.OnResult(res)
			rep.observe(res)
		}
		t0 := time.Now()
		pt := buf.begin("traffic.point", root, op)
		b := buf.begin("netsim.build", pt, op)
		n, err := netsim.Build(spec.Net)
		buf.finish(b)
		if err != nil {
			return nil, fmt.Errorf("netsim.Build load %.2f: %w", load, err)
		}
		driver.Bind(n)
		tk, undo := decorateKernel(n, routers, buf)
		total := spec.WarmupCycles + spec.MeasureCycles
		for c := uint64(0); c < total; c++ {
			s0 := time.Now()
			id := buf.add("clock.step", s0, s0, pt, op)
			if tk != nil {
				tk.parent, tk.op = id, op
			}
			n.Engine.Step()
			s1 := time.Now()
			buf.spans[id].end = int64(s1.Sub(buf.epoch))
			*stepUs = append(*stepUs, float64(s1.Sub(s0))/1e3)
		}
		undo()
		n.Close()
		buf.finish(pt)
		rep.pointMs = append(rep.pointMs, time.Since(t0).Seconds()*1e3)
		rep.cycles += int64(total)
		rep.last = driver.Point()
	}
	rep.seconds = time.Since(start).Seconds()
	rep.ids = nil
	buf.finish(root)
	return rep, nil
}

// fig3Setup is the work before the first timed operation: one short
// untimed point that pages the simulator in and grows the heap to its
// working size. Build itself is inside the timed region, because
// metrosim users pay it per point.
func (cfg runConfig) fig3Setup() error {
	spec := cfg.fig3Point(fig3Loads[len(fig3Loads)-1], nil)
	spec.WarmupCycles /= 2
	spec.MeasureCycles /= 2
	_, err := traffic.Run(spec)
	return err
}

// fig3Hardware is the modelled-hardware catalogue at load 0.90.
func fig3Hardware(rep *fig3Rep) map[string]float64 {
	// The measured interval of the load-0.90 point, the figure the paper
	// plots; the digest covers the whole sweep.
	p := rep.last
	hw := map[string]float64{
		"nic.msgs_completed":     float64(p.Messages),
		"nic.latency_p50_cycles": p.Latency.P50,
		"nic.latency_p95_cycles": p.Latency.P95,
		"nic.retries_per_msg":    p.RetriesPerMessage,
		"nic.accepted_load":      p.AcceptedLoad,
	}
	if p.Messages > 0 {
		hw["nic.delivered_ratio"] = float64(p.Delivered) / float64(p.Messages)
		hw["nic.delivered_per_attempt"] = float64(p.Delivered) / (float64(p.Messages) * (1 + p.RetriesPerMessage))
	}
	return hw
}

// fig3Check holds a repetition to the structural rules and, through
// the first repetition, to the golden.
func (cfg runConfig) fig3Check(o *outcome, reps []*fig3Rep) {
	first := reps[0]
	for i, r := range reps {
		o.attempted += r.stream.completed
		o.failed += r.stream.completed - r.stream.delivered + r.dupes
		if r.stream.completed == 0 {
			o.problemf("repetition %d completed no messages", i)
		}
		if r.dupes > 0 {
			o.problemf("repetition %d: %d messages completed more than once", i, r.dupes)
		}
		if r.stream.delivered != r.stream.completed {
			o.problemf("repetition %d: %d of %d messages not delivered", i, r.stream.completed-r.stream.delivered, r.stream.completed)
		}
		if d := r.stream.digest(); d != first.stream.digest() {
			o.problemf("repetition %d digest %s differs from repetition 0 %s: identical work must repeat exactly", i, d, first.stream.digest())
		}
	}
	cfg.checkGolden(o, "fig3_sweep", goldenEntry{Digest: first.stream.digest(), Hardware: fig3Hardware(first)})
}

func runFig3(cfg runConfig) (*outcome, error) {
	if cfg.trace {
		return runFig3Traced(cfg)
	}
	o := newOutcome()
	setup, err := cfg.measureSetup(5, cfg.fig3Setup)
	if err != nil {
		return nil, err
	}
	var reps []*fig3Rep
	var rates, pointMs []float64
	_, err = cfg.repeat(func(int) error {
		r, err := cfg.fig3Sweep()
		if err != nil {
			return err
		}
		reps = append(reps, r)
		rates = append(rates, r.rate())
		pointMs = append(pointMs, r.pointMs...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// What a metrosim user holds live during a point: one built network.
	n, err := netsim.Build(cfg.fig3Point(0.9, nil).Net)
	if err != nil {
		return nil, err
	}
	heap := heapLiveMB()
	n.Close()

	cfg.fig3Check(o, reps)
	o.values["setup_s"] = setup
	o.values["ops_per_s"] = median(rates)
	o.values["op_p50_ms"] = median(pointMs)
	o.values["heap_live_mb"] = heap
	o.notef("op = one load point (Build + %d cycles); ops_per_s = simulated cycles per host second", reps[0].cycles/int64(len(fig3Loads)))
	o.notef("%d repetitions of %d cycles, rate spread %.2f%%, %d point samples, p99 %.3f ms",
		len(reps), reps[0].cycles, 100*spread(rates), len(pointMs), percentile(pointMs, 99))
	return o, nil
}

// measureSetup runs a workload's set-up k times (once for -quick) and
// returns the median duration in seconds. The timed region keeps the
// final pass's products.
func (cfg runConfig) measureSetup(k int, setup func() error) (float64, error) {
	if cfg.quick {
		k = 1
	}
	var secs []float64
	for i := 0; i < k; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

func runFig3Traced(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	if err := cfg.fig3Setup(); err != nil {
		return nil, err
	}
	epoch := time.Now()
	spec := topo.Figure3()
	point := cfg.fig3Point(0.9, nil)
	build, err := probeBuild(point.Net, spec, newSpanBuf(epoch, 2, 64))
	if err != nil {
		return nil, err
	}

	const pairs = 3
	stepsPerRep := len(fig3Loads) * int(point.WarmupCycles+point.MeasureCycles)
	buf := newSpanBuf(epoch, 1, pairs*(stepsPerRep+4*len(fig3Loads)+2))
	stepUs := make([]float64, 0, pairs*stepsPerRep)
	var plain, traced []*fig3Rep
	var plainRates, tracedRates, pointMs []float64
	n := pairs
	if cfg.quick {
		n = 1
	}
	for i := 0; i < n; i++ {
		u, err := cfg.fig3Sweep()
		if err != nil {
			return nil, err
		}
		t, err := cfg.fig3SweepTraced(buf, int64(i), &stepUs)
		if err != nil {
			return nil, err
		}
		plain, traced = append(plain, u), append(traced, t)
		plainRates, tracedRates = append(plainRates, u.rate()), append(tracedRates, t.rate())
		pointMs = append(pointMs, u.pointMs...)
	}
	cfg.fig3Check(o, append(plain, traced...))
	// The allocation bill is read over a sweep with no result hook, so
	// it holds the simulator's allocations and not the harness's digest
	// and exactly-once bookkeeping.
	before := readMem()
	var probeCycles uint64
	for _, load := range fig3Loads {
		spec := cfg.fig3Point(load, nil)
		if _, err := traffic.Run(spec); err != nil {
			return nil, err
		}
		probeCycles += spec.WarmupCycles + spec.MeasureCycles
	}
	mem := memSince(before)

	build.report(o, spec.Endpoints)
	o.values["trace_overhead_pct"] = 100 * (median(plainRates)/median(tracedRates) - 1)
	o.values["op_p99_ms"] = percentile(pointMs, 99)
	o.values["traffic.point_ms_p50"] = median(pointMs)
	o.values["clock.step_us_p50"] = median(stepUs)
	o.values["clock.step_us_p99"] = percentile(stepUs, 99)
	o.values["clock.step_us_mean"] = mean(stepUs)
	mem.report(o, float64(probeCycles)/1e3)
	for k, v := range fig3Hardware(plain[0]) {
		o.values[k] = v
	}
	path, err := writeTrace(cfg.outDir, "fig3_sweep", buf, build.buf)
	if err != nil {
		return nil, err
	}
	o.notef("%d untraced/traced repetition pairs, %d step samples, trace %s", n, len(stepUs), path)
	return o, nil
}

// buildProbe is the Build decomposition shared by the sim workloads.
type buildProbe struct {
	buf          *spanBuf
	topoMs       float64 // standalone topo.Build
	netsimMs     float64 // netsim.Build, whole
	allocs       uint64
	heapGrowthMB float64
}

// probeBuild times topo.Build standalone and netsim.Build whole (which
// runs topo.Build inside), and charges one Build's heap growth and
// allocation count. The built networks are dropped.
func probeBuild(p netsim.Params, spec topo.Spec, buf *spanBuf) (*buildProbe, error) {
	const samples = 5
	b := &buildProbe{buf: buf}
	var topoMs, netMs []float64
	for i := 0; i < samples; i++ {
		id := buf.begin("probe.topo.build", -1, int64(i))
		if _, err := topo.Build(spec); err != nil {
			return nil, err
		}
		buf.finish(id)
		topoMs = append(topoMs, float64(buf.spans[id].end-buf.spans[id].start)/1e6)
	}
	for i := 0; i < samples; i++ {
		// The first Build is also charged its allocation count and its
		// live-heap growth; forcing collections around every sample
		// would cost more than the Builds.
		var heapBefore float64
		if i == 0 {
			heapBefore = heapLiveMB()
		}
		before := readMem()
		id := buf.begin("probe.netsim.build", -1, int64(i))
		n, err := netsim.Build(p)
		buf.finish(id)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			b.allocs = memSince(before).mallocs
			b.heapGrowthMB = heapLiveMB() - heapBefore // n is still referenced
		}
		n.Close()
		netMs = append(netMs, float64(buf.spans[id].end-buf.spans[id].start)/1e6)
	}
	b.topoMs, b.netsimMs = median(topoMs), median(netMs)
	return b, nil
}

func (b *buildProbe) report(o *outcome, endpoints int) {
	o.values["topo.build_ms"] = b.topoMs
	o.values["netsim.build_ms"] = b.netsimMs - b.topoMs // self time
	o.values["netsim.build_allocs"] = float64(b.allocs)
	o.values["netsim.bytes_per_endpoint"] = b.heapGrowthMB * 1e6 / float64(endpoints)
}

// report writes the host-layer allocation bill of a simulation region.
func (m memDelta) report(o *outcome, kcycles float64) {
	if kcycles > 0 {
		o.values["clock.allocs_per_kcycle"] = float64(m.mallocs) / kcycles
		o.values["clock.alloc_kb_per_kcycle"] = float64(m.allocBytes) / 1e3 / kcycles
	}
	o.values["host.gc_cycles"] = float64(m.gcCycles)
	o.values["host.gc_pause_ms"] = float64(m.gcPauseNs) / 1e6
}
