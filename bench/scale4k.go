package main

import (
	"fmt"
	"math/rand"
	"time"

	"metro/internal/netsim"
	"metro/internal/nic"
	"metro/internal/topo"
)

// scale4k_step sizes: the `metrobench -scale` closed loop at 4096
// endpoints. A repetition is shorter than metrobench's so that a
// ten-second run holds several (see README.md, "Sizing").
const (
	scaleEndpoints    = 4096
	scaleRadix        = 4
	scaleWarmupCycles = 256
	scaleRepCycles    = 450
)

var scalePayload = [4]byte{0xa5, 0x3c, 0x96, 0x0f}

// scaleNet is one warm 4Ki-endpoint network under closed-loop load.
type scaleNet struct {
	n         *netsim.Network
	endpoints int
	rng       *rand.Rand
	pending   []nic.Result // completions of the current cycle
	buildS    float64
}

// scaleParams is the `metrobench -scale` network on the compiled
// kernel, serial.
func (cfg runConfig) scaleParams(spec topo.Spec, onResult func(nic.Result)) netsim.Params {
	p := netsim.Params{
		Spec: spec, Width: 8, DataPipe: 2, LinkDelay: 1,
		Seed: cfg.seed + 70, RetryLimit: 600, ListenTimeout: 200,
		OnResult: onResult,
	}
	selectKernel(&p)
	return p
}

func (cfg runConfig) scaleSize() (endpoints, repCycles, warmup int) {
	if cfg.quick {
		// 1/16 of the endpoints and just enough cycles for messages
		// to complete: the same code path in a few tens of
		// milliseconds.
		return scaleEndpoints / 16, 120, 64
	}
	return scaleEndpoints, scaleRepCycles, scaleWarmupCycles
}

// buildScaleNet is the workload's set-up: Build, fill the closed loop,
// run the warm-up cycles.
func (cfg runConfig) buildScaleNet() (*scaleNet, error) {
	endpoints, _, warmup := cfg.scaleSize()
	spec, err := topo.Scale(endpoints, scaleRadix)
	if err != nil {
		return nil, err
	}
	s := &scaleNet{endpoints: endpoints, rng: rand.New(rand.NewSource(cfg.seed + 16))}
	t0 := time.Now()
	s.n, err = netsim.Build(cfg.scaleParams(spec, func(r nic.Result) { s.pending = append(s.pending, r) }))
	if err != nil {
		return nil, fmt.Errorf("netsim.Build: %w", err)
	}
	s.buildS = time.Since(t0).Seconds()
	inflight := endpoints / 8
	if inflight < 64 {
		inflight = 64
	}
	for i := 0; i < inflight; i++ {
		s.send()
	}
	s.run(warmup, nil, nil, nil, 0)
	return s, nil
}

func (s *scaleNet) send() {
	src, dest := s.rng.Intn(s.endpoints), s.rng.Intn(s.endpoints)
	if dest == src {
		dest = (dest + 1) % s.endpoints
	}
	s.n.Send(src, dest, scalePayload[:])
}

// scaleRep is one repetition's measurements.
type scaleRep struct {
	seconds float64
	cycles  int
	stepUs  []float64
	stream  *resultStream
	dupes   int64
}

func (r *scaleRep) rate() float64 { return float64(r.cycles) / r.seconds }

// run steps the warm network `cycles` times, replacing every completed
// message at once. stream (optional) receives the completions; buf and
// tk (optional) receive the spans of a traced repetition.
func (s *scaleNet) run(cycles int, stream *resultStream, buf *spanBuf, tk *timedKernel, op int64) *scaleRep {
	rep := &scaleRep{cycles: cycles, stream: stream, stepUs: make([]float64, 0, cycles)}
	seen := map[uint64]struct{}{}
	root := buf.begin("rep", -1, op)
	start := time.Now()
	for i := 0; i < cycles; i++ {
		t0 := time.Now()
		id := buf.add("clock.step", t0, t0, root, op)
		if tk != nil {
			tk.parent, tk.op = id, op
		}
		s.n.Engine.Step()
		t1 := time.Now()
		for _, r := range s.pending {
			if stream != nil {
				stream.add(r)
				if _, dup := seen[r.Msg.ID]; dup {
					rep.dupes++
				}
				seen[r.Msg.ID] = struct{}{}
			}
			s.send()
		}
		s.pending = s.pending[:0]
		s.n.ResetResults()
		if buf != nil {
			buf.spans[id].end = int64(t1.Sub(buf.epoch))
			buf.add("traffic.driver", t1, time.Now(), root, op)
		}
		rep.stepUs = append(rep.stepUs, float64(t1.Sub(t0))/1e3)
	}
	rep.seconds = time.Since(start).Seconds()
	buf.finish(root)
	return rep
}

// scaleCheck holds the repetitions to the structural rules and the
// first one to the golden.
func (cfg runConfig) scaleCheck(o *outcome, reps []*scaleRep) {
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
	}
	// Repetitions continue one simulation, so only the first (the
	// cycles right after warm-up) has a digest a golden can pin.
	first := reps[0].stream
	cfg.checkGolden(o, "scale4k_step", goldenEntry{Digest: first.digest(), Hardware: first.hardware()})
}

func runScale4k(cfg runConfig) (*outcome, error) {
	if cfg.trace {
		return runScale4kTraced(cfg)
	}
	o := newOutcome()
	var net *scaleNet
	setup, err := cfg.measureSetup(3, func() error {
		if net != nil {
			net.n.Close()
		}
		n, err := cfg.buildScaleNet()
		net = n
		return err
	})
	if err != nil {
		return nil, err
	}
	defer net.n.Close()
	_, repCycles, _ := cfg.scaleSize()
	var reps []*scaleRep
	var rates, stepMs []float64
	cfg.repeat(func(int) error {
		// Only the first repetition feeds the golden's hardware metrics.
		r := net.run(repCycles, newResultStream(len(reps) == 0), nil, nil, 0)
		reps = append(reps, r)
		rates = append(rates, r.rate())
		for _, us := range r.stepUs {
			stepMs = append(stepMs, us/1e3)
		}
		return nil
	})
	heap := heapLiveMB() // the built network is still referenced here

	cfg.scaleCheck(o, reps)
	o.values["setup_s"] = setup
	o.values["ops_per_s"] = median(rates)
	o.values["op_p50_ms"] = median(stepMs)
	o.values["heap_live_mb"] = heap
	o.notef("op = one Engine.Step at %d endpoints; ops_per_s = simulated cycles per host second (step + closed-loop driver)", net.endpoints)
	o.notef("%d repetitions of %d cycles, rate spread %.2f%%, %d step samples, p99 %.3f ms, last Build %.3f s",
		len(reps), repCycles, 100*spread(rates), len(stepMs), percentile(stepMs, 99), net.buildS)
	return o, nil
}

func runScale4kTraced(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	endpoints, repCycles, _ := cfg.scaleSize()
	spec, err := topo.Scale(endpoints, scaleRadix)
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	build, err := probeBuild(cfg.scaleParams(spec, nil), spec, newSpanBuf(epoch, 2, 64))
	if err != nil {
		return nil, err
	}
	net, err := cfg.buildScaleNet()
	if err != nil {
		return nil, err
	}
	defer net.n.Close()
	routers, err := routerUnits(spec)
	if err != nil {
		return nil, err
	}

	pairs := 3
	if cfg.quick {
		pairs = 1
	}
	buf := newSpanBuf(epoch, 1, pairs*(repCycles*6+1))
	var plain, traced []*scaleRep
	var plainRates, tracedRates, stepUs []float64
	var tracedCycles int64
	for i := 0; i < pairs; i++ {
		u := net.run(repCycles, newResultStream(i == 0), nil, nil, 0)
		tk, undo := decorateKernel(net.n, routers, buf)
		t := net.run(repCycles, newResultStream(false), buf, tk, int64(i))
		undo()
		tracedCycles += int64(t.cycles)
		plain, traced = append(plain, u), append(traced, t)
		plainRates, tracedRates = append(plainRates, u.rate()), append(tracedRates, t.rate())
		stepUs = append(stepUs, t.stepUs...)
	}
	// The allocation bill is read over a repetition that feeds no
	// result stream, so it holds the simulator's allocations and not the
	// harness's digest and exactly-once bookkeeping.
	before := readMem()
	probe := net.run(repCycles, nil, nil, nil, 0)
	mem := memSince(before)
	// The same warm network at two workers, one repetition: the number a
	// parallel-engine issue must first make measurable.
	net.n.Engine.SetWorkers(2)
	w2 := net.run(repCycles, newResultStream(false), nil, nil, 0)
	net.n.Engine.SetWorkers(0)
	// plain[0] is the first repetition after warm-up, the one the
	// golden pins; the rest are held to the structural rules.
	all := append(append(append([]*scaleRep(nil), plain[0]), traced...), plain[1:]...)
	cfg.scaleCheck(o, append(all, w2))

	build.report(o, endpoints)
	o.values["trace_overhead_pct"] = 100 * (median(plainRates)/median(tracedRates) - 1)
	var plainStepMs []float64
	for _, r := range plain {
		for _, us := range r.stepUs {
			plainStepMs = append(plainStepMs, us/1e3)
		}
	}
	o.values["op_p99_ms"] = percentile(plainStepMs, 99)
	o.values["clock.step_us_p50"] = median(stepUs)
	o.values["clock.step_us_p99"] = percentile(stepUs, 99)
	stepMean := mean(stepUs)
	o.values["clock.step_us_mean"] = stepMean
	// The phase split is read off the trace: a phase's bill is its
	// spans' total, the epilogue's is the step's self time.
	total, self := selfTimes(buf.spans)
	perCycle := func(ns int64) float64 { return float64(ns) / 1e3 / float64(tracedCycles) }
	o.values["kernel.eval_routers_us"] = perCycle(total["kernel.eval_routers"])
	o.values["kernel.eval_endpoints_us"] = perCycle(total["kernel.eval_endpoints"])
	o.values["kernel.commit_units_us"] = perCycle(total["kernel.commit_units"])
	o.values["link.shuttle_us"] = perCycle(total["link.shuttle"])
	o.values["netsim.epilogue_us"] = perCycle(self["clock.step"])
	o.values["traffic.driver_us"] = perCycle(total["traffic.driver"])
	o.values["clock.w2_speedup"] = w2.rate() / median(plainRates)
	mem.report(o, float64(probe.cycles)/1e3)
	for k, v := range plain[0].stream.hardware() {
		o.values[k] = v
	}
	path, err := writeTrace(cfg.outDir, "scale4k_step", buf, build.buf)
	if err != nil {
		return nil, err
	}
	if p50 := o.values["clock.step_us_p50"]; p50 > 0 {
		o.notef("phases + epilogue = %.1f us/cycle, %.1f%% of clock.step_us_p50", stepMean, 100*stepMean/p50)
	}
	o.notef("%d untraced/traced repetition pairs of %d cycles at %d endpoints, trace %s", pairs, repCycles, endpoints, path)
	return o, nil
}
