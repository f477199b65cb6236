package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"metro/internal/metrofuzz"
	"metro/internal/netsim"
	"metro/internal/telemetry"
)

// coldRep is one serve_cold repetition: the whole spec list through a
// fresh server, then Drain.
type coldRep struct {
	seconds  float64
	latency  []float64 // all jobs, ms
	waitMs   []float64 // even-indexed jobs: POST ?wait=1
	sseMs    []float64 // odd-indexed jobs: POST then event stream
	frames   int
	drainMs  float64
	stats    statsSnapshot
	bodySize int64
	cycles   uint64
}

// coldState carries what repetitions share: the inputs and the first
// repetition's bodies, which every later repetition must reproduce byte
// for byte.
type coldState struct {
	specs      specList
	cacheBytes int64
	refs       [][]byte
	live       *testServer // the last repetition's server, kept for heap_live_mb and scrapes
}

// coldSetup is the workload's set-up: generate the spec list, bring a
// server up, and push a few jobs through it so the first timed job does
// not pay the process's lazy initialisation.
func (cfg runConfig) coldSetup() (*coldState, error) {
	st := &coldState{specs: genSpecs(cfg.seed, cfg.scaled(serveSpecs)), cacheBytes: int64(cfg.scaled(coldCacheBytes))}
	st.refs = make([][]byte, len(st.specs.lines))
	s := startServer(st.cacheBytes)
	defer s.close()
	n := cfg.scaled(warmupJobs)
	if n > len(st.specs.lines) {
		n = len(st.specs.lines)
	}
	var firstErr error
	logs, _ := closedLoop(n, nil, func(c *clientLog, i int) {
		r, err := s.submitWait(st.specs.lines[i])
		if err != nil || r.code != http.StatusOK {
			c.failf("warm-up job %d: status %d: %v", i, r.code, err)
		}
	})
	for _, c := range logs {
		if c.failed > 0 && firstErr == nil {
			firstErr = fmt.Errorf("%s", c.problems[0])
		}
	}
	if _, err := s.stop(); err != nil && firstErr == nil {
		firstErr = err
	}
	return st, firstErr
}

// rep drives one repetition. bufs (optional) receive the request spans
// of a traced repetition.
func (st *coldState) rep(o *outcome, op int64, bufs []*spanBuf) (*coldRep, error) {
	if st.live != nil {
		st.live.close()
	}
	s := startServer(st.cacheBytes)
	st.live = s
	rep := &coldRep{}
	total := len(st.specs.lines)
	type sample struct {
		ms     float64
		stream bool
		frames int
		size   int
		cycles uint64
	}
	samples := make([]sample, total)
	logs, wall := closedLoop(total, bufs, func(c *clientLog, i int) {
		line := st.specs.lines[i]
		jobOp := op*int64(total) + int64(i)
		job := c.buf.begin("job", -1, jobOp)
		t0 := time.Now()
		var r reply
		var err error
		frames := 0
		stream := i%2 == 1
		if stream {
			r, frames, err = s.submitStream(line, c.buf, job, jobOp)
		} else {
			post := c.buf.begin("http.post", job, jobOp)
			r, err = s.submitWait(line)
			c.buf.finish(post)
		}
		ms := time.Since(t0).Seconds() * 1e3
		c.buf.finish(job)
		status, cycles := parseResult(r.body)
		samples[i] = sample{ms: ms, stream: stream, frames: frames, size: len(r.body), cycles: cycles}
		switch {
		case err != nil:
			c.failf("job %d: %v", i, err)
		case r.code != http.StatusOK:
			c.failf("job %d: HTTP %d: %s", i, r.code, bytes.TrimSpace(r.body))
		case r.cache != "miss":
			c.failf("job %d: X-Cache %q on a fresh server, want miss", i, r.cache)
		case r.job != st.specs.keys[i]:
			c.failf("job %d: X-Job %s, want %s", i, r.job, st.specs.keys[i])
		case status != "passed":
			c.failf("job %d: status %q, want passed", i, status)
		case st.refs[i] == nil:
			st.refs[i] = r.body
		case !bytes.Equal(st.refs[i], r.body):
			c.failf("job %d: result bytes differ from the first repetition's", i)
		}
	})
	rep.seconds = wall.Seconds()
	merge(o, logs, total)
	for _, sm := range samples {
		rep.latency = append(rep.latency, sm.ms)
		if sm.stream {
			rep.sseMs = append(rep.sseMs, sm.ms)
			rep.frames += sm.frames
		} else {
			rep.waitMs = append(rep.waitMs, sm.ms)
		}
		rep.bodySize += int64(sm.size)
		rep.cycles += sm.cycles
	}
	drain, err := s.stop()
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	rep.drainMs = drain.Seconds() * 1e3
	if rep.stats, err = s.stats(); err != nil {
		return nil, err
	}
	// The ledger must balance and read as designed: every job a miss,
	// every job executed, the cache too small to hold them all.
	c, ca := rep.stats.Counters, rep.stats.Cache
	n := uint64(total)
	if c.Enqueued != n || c.Executed != n || rep.stats.Queued != 0 {
		o.problemf("repetition %d: stats do not balance after Drain: enqueued %d executed %d queued %d, want %d/%d/0", op, c.Enqueued, c.Executed, rep.stats.Queued, n, n)
	}
	if ca.Misses != n || ca.Hits != 0 || c.CacheServed != 0 {
		o.problemf("repetition %d: cache misses %d hits %d, want %d/0", op, ca.Misses, ca.Hits, n)
	}
	if ca.Evictions == 0 {
		o.problemf("repetition %d: no cache evictions: the %d-byte budget no longer overflows", op, st.cacheBytes)
	}
	if c.RejectedFull != 0 || c.Coalesced != 0 {
		o.problemf("repetition %d: %d rejected, %d coalesced: the generator is mis-sized", op, c.RejectedFull, c.Coalesced)
	}
	return rep, nil
}

func runServeCold(cfg runConfig) (*outcome, error) {
	if cfg.trace {
		return runServeColdTraced(cfg)
	}
	o := newOutcome()
	var st *coldState
	setup, err := cfg.measureSetup(3, func() error {
		s, err := cfg.coldSetup()
		st = s
		return err
	})
	if err != nil {
		return nil, err
	}
	var rates []float64
	samples := newSampleRing(latencySamples)
	reps, err := cfg.repeat(func(i int) error {
		r, err := st.rep(o, int64(i), nil)
		if err != nil {
			return err
		}
		rates = append(rates, float64(len(r.latency))/r.seconds)
		samples.add(r.latency...)
		return nil
	})
	latency := samples.values()
	if err != nil {
		return nil, err
	}
	heap := heapLiveMB() // the last server, its cache and job records are still referenced
	st.live.close()

	cfg.checkGolden(o, "serve_cold", goldenEntry{Digest: st.specs.digest})
	o.values["setup_s"] = setup
	o.values["ops_per_s"] = median(rates)
	o.values["op_p50_ms"] = median(latency)
	o.values["heap_live_mb"] = heap
	tail, p := tailPercentile(latency, 10)
	o.notef("op = one job, submit to result bytes in hand; ops_per_s = completed jobs per host second, %d workers, %d clients", serveWorkers, serveClients)
	o.notef("%d repetitions of %d jobs, rate spread %.2f%%, %d latency samples, p%g %.3f ms", reps, len(st.specs.lines), 100*spread(rates), len(latency), p, tail)
	return o, nil
}

// runProbe is the outside-in decomposition of one direct metrofuzz.Run:
// Hooks.Mutate fires when a leg's network is built, the last
// Hooks.Progress call of a leg fires when it has stepped its final
// cycle, and what remains of the run is the oracle battery.
type runProbe struct {
	totalMs, buildMs, cyclesMs float64
	legs                       int
	cycles                     uint64
}

func (p runProbe) oraclesMs() float64 { return p.totalMs - p.buildMs - p.cyclesMs }

// probeRun times one scenario. withRecorder attaches a flight recorder
// shaped like the one metroserve gives every job; buf (optional)
// receives probe.run -> {run.build, run.cycles} spans.
func probeRun(s metrofuzz.Scenario, withRecorder bool, buf *spanBuf, op int64) (runProbe, *metrofuzz.Report) {
	var p runProbe
	var root int32
	var mark, lastProgress time.Time
	var legCycle uint64
	events := 0
	h := metrofuzz.Hooks{
		Mutate: func(*netsim.Network) {
			now := time.Now()
			if p.legs > 0 {
				// The previous leg ended at its last Progress call.
				p.cyclesMs += lastProgress.Sub(mark).Seconds() * 1e3
				buf.add("run.cycles", mark, lastProgress, root, op)
				p.cycles += legCycle
				mark = lastProgress
			}
			p.buildMs += now.Sub(mark).Seconds() * 1e3
			buf.add("run.build", mark, now, root, op)
			mark = now
			p.legs++
		},
		Progress: func(cycle uint64, offered, completed, delivered int) bool {
			lastProgress = time.Now()
			legCycle = cycle
			return true
		},
	}
	if withRecorder {
		rec := telemetry.New(telemetry.Options{Capacity: 1 << 14})
		rec.SetSink(func(ev []telemetry.Event) { events += len(ev) })
		h.Recorder = rec
	}
	root = buf.begin("probe.run", -1, op)
	start := time.Now()
	mark = start
	rep := metrofuzz.Run(s, h)
	end := time.Now()
	if p.legs > 0 {
		p.cyclesMs += lastProgress.Sub(mark).Seconds() * 1e3
		buf.add("run.cycles", mark, lastProgress, root, op)
		p.cycles += legCycle
		buf.add("run.oracles", lastProgress, end, root, op)
	}
	buf.finish(root)
	p.totalMs = end.Sub(start).Seconds() * 1e3
	return p, rep
}

func runServeColdTraced(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	st, err := cfg.coldSetup()
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	total := len(st.specs.lines)

	// Direct probes: the same scenarios with no server around them.
	probeBuf := newSpanBuf(epoch, 3, total*8)
	var runMs, buildMs, cyclesMs, oraclesMs []float64
	var legs int
	var cycles uint64
	var withSum, withoutSum float64
	for i, s := range st.specs.scenarios {
		var with, without runProbe
		var rep *metrofuzz.Report
		// Alternate which variant runs first so neither always gets the
		// warmer cache.
		if i%2 == 0 {
			with, rep = probeRun(s, true, probeBuf, int64(i))
			without, _ = probeRun(s, false, nil, 0)
		} else {
			without, _ = probeRun(s, false, nil, 0)
			with, rep = probeRun(s, true, probeBuf, int64(i))
		}
		if rep.Failed() {
			o.problemf("direct run of spec %d failed its oracles: %v", i, rep.Failures[0])
		}
		runMs = append(runMs, with.totalMs)
		buildMs = append(buildMs, with.buildMs)
		cyclesMs = append(cyclesMs, with.cyclesMs)
		oraclesMs = append(oraclesMs, with.oraclesMs())
		legs += with.legs
		cycles += with.cycles
		withSum += with.totalMs
		withoutSum += without.totalMs
	}

	// Server repetitions, untraced and traced alternately.
	pairs := 3
	if cfg.quick {
		pairs = 1
	}
	bufs := make([]*spanBuf, serveClients)
	for k := range bufs {
		bufs[k] = newSpanBuf(epoch, 10+k, pairs*total*4)
	}
	var plainRates, tracedRates, latency, waitMs, sseMs, drainMs []float64
	var frames, streamed int
	var bodyBytes int64
	var last *coldRep
	var mem memDelta
	var memCycles uint64
	for i := 0; i < pairs; i++ {
		runtime.GC()
		before := readMem()
		u, err := st.rep(o, int64(2*i), nil)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			mem, memCycles = memSince(before), u.cycles
		}
		t, err := st.rep(o, int64(2*i+1), bufs)
		if err != nil {
			return nil, err
		}
		plainRates = append(plainRates, float64(total)/u.seconds)
		tracedRates = append(tracedRates, float64(total)/t.seconds)
		for _, r := range []*coldRep{u, t} {
			latency = append(latency, r.latency...)
			waitMs = append(waitMs, r.waitMs...)
			sseMs = append(sseMs, r.sseMs...)
			drainMs = append(drainMs, r.drainMs)
			frames += r.frames
			streamed += len(r.sseMs)
			bodyBytes += r.bodySize
		}
		last = t
	}
	series, scrapeMs, err := st.live.scrapeMetrics(20)
	if err != nil {
		return nil, err
	}
	st.live.close()
	cfg.checkGolden(o, "serve_cold", goldenEntry{Digest: st.specs.digest})

	n := float64(total)
	o.values["trace_overhead_pct"] = 100 * (median(plainRates)/median(tracedRates) - 1)
	o.values["op_p99_ms"] = percentile(latency, 99)
	o.values["metrofuzz.run_ms_p50"] = median(runMs)
	o.values["metrofuzz.run_ms_p99"] = percentile(runMs, 99)
	o.values["metrofuzz.build_ms_mean"] = mean(buildMs)
	o.values["metrofuzz.cycles_ms_mean"] = mean(cyclesMs)
	o.values["metrofuzz.oracles_ms_mean"] = mean(oraclesMs)
	o.values["metrofuzz.legs_per_job"] = float64(legs) / n
	o.values["metrofuzz.cycles_per_job"] = float64(cycles) / n
	o.values["telemetry.recorder_overhead_pct"] = 100 * (withSum/withoutSum - 1)
	o.values["serve.overhead_ms_p50"] = median(latency) - median(runMs)
	o.values["serve.wait_ms_p50"] = median(waitMs)
	o.values["serve.sse_ms_p50"] = median(sseMs)
	if streamed > 0 {
		o.values["serve.sse_frames_per_job"] = float64(frames) / float64(streamed)
	}
	o.values["serve.sse_dropped_frames"] = series["serve_sse_dropped_frames_total"]
	o.values["serve.queue_wait_ms_mean"] = histMeanMs(series, "serve_queue_wait_seconds", "")
	o.values["serve.job_duration_ms_mean"] = histMeanMs(series, "serve_job_duration_seconds", `{outcome="passed"}`)
	o.values["serve.drain_ms"] = median(drainMs)
	o.values["serve.result_bytes_mean"] = float64(bodyBytes) / (n * float64(2*pairs))
	o.values["metrics.scrape_ms_p50"] = median(scrapeMs)
	last.stats.report(o)
	mem.report(o, float64(memCycles)/1e3)
	o.values["host.allocs_per_request"] = float64(mem.mallocs) / n
	o.values["host.alloc_kb_per_request"] = float64(mem.allocBytes) / 1e3 / n

	path, err := writeTrace(cfg.outDir, "serve_cold", append(bufs, probeBuf)...)
	if err != nil {
		return nil, err
	}
	o.notef("%d direct runs with and without the recorder, %d untraced/traced server repetition pairs of %d jobs, trace %s", total, pairs, total, path)
	return o, nil
}
