package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"metro/internal/metrofuzz"
	"metro/internal/serve"
)

// warmRequest is one entry of the fixed request list a serve_warm
// repetition replays: a repeat submission under a fresh field order, or
// a poll by job id.
type warmRequest struct {
	spec int
	get  bool
	body string // POST: the permuted spec line
	path string // GET: /v1/jobs/{id}
}

// warmState is a primed server and the request list.
type warmState struct {
	specs    specList
	refs     [][]byte // the priming responses: every later reply must equal them byte for byte
	server   *testServer
	requests []warmRequest
	posts    int
}

// warmSetup is the workload's set-up: generate the specs, bring up a
// server with the default cache budget, simulate every spec once, and
// lay out the request list.
func (cfg runConfig) warmSetup() (*warmState, error) {
	st := &warmState{specs: genSpecs(cfg.seed, cfg.scaled(serveSpecs))}
	total := len(st.specs.lines)
	st.refs = make([][]byte, total)
	st.server = startServer(0)
	logs, _ := closedLoop(total, nil, func(c *clientLog, i int) {
		r, err := st.server.submitWait(st.specs.lines[i])
		status, _ := parseResult(r.body)
		switch {
		case err != nil:
			c.failf("priming job %d: %v", i, err)
		case r.code != http.StatusOK || r.cache != "miss" || status != "passed":
			c.failf("priming job %d: HTTP %d, X-Cache %q, status %q; want 200/miss/passed", i, r.code, r.cache, status)
		}
		st.refs[i] = r.body
	})
	for _, c := range logs {
		if c.failed > 0 {
			st.server.close()
			return nil, fmt.Errorf("%s", c.problems[0])
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed + 9))
	st.requests = make([]warmRequest, cfg.scaled(warmRequests))
	for i := range st.requests {
		k := rng.Intn(total)
		if rng.Intn(10) == 0 {
			st.requests[i] = warmRequest{spec: k, get: true, path: "/v1/jobs/" + st.specs.keys[k]}
			continue
		}
		st.requests[i] = warmRequest{spec: k, body: permuteSpec(st.specs.lines[k], rng)}
		st.posts++
	}
	return st, nil
}

// warmRep is one repetition's measurements.
type warmRep struct {
	seconds float64
	postMs  []float64
	getMs   []float64
}

// rep replays the request list once, closed loop.
func (st *warmState) rep(o *outcome, op int64, bufs []*spanBuf) *warmRep {
	total := len(st.requests)
	ms := make([]float64, total)
	logs, wall := closedLoop(total, bufs, func(c *clientLog, i int) {
		q := st.requests[i]
		reqOp := op*int64(total) + int64(i)
		t0 := time.Now()
		var r reply
		var err error
		if q.get {
			r, err = st.server.do("GET", q.path, "")
		} else {
			r, err = st.server.submitWait(q.body)
		}
		t1 := time.Now()
		if c.buf != nil {
			name := "http.post"
			if q.get {
				name = "http.get"
			}
			job := c.buf.add("job", t0, t1, -1, reqOp)
			c.buf.add(name, t0, t1, job, reqOp)
		}
		ms[i] = t1.Sub(t0).Seconds() * 1e3
		switch {
		case err != nil:
			c.failf("request %d: %v", i, err)
		case r.code != http.StatusOK:
			c.failf("request %d: HTTP %d: %s", i, r.code, bytes.TrimSpace(r.body))
		case r.cache != "hit":
			c.failf("request %d: X-Cache %q on a primed server, want hit", i, r.cache)
		case !bytes.Equal(r.body, st.refs[q.spec]):
			c.failf("request %d: body differs from the priming response", i)
		}
	})
	merge(o, logs, total)
	rep := &warmRep{seconds: wall.Seconds()}
	for i, q := range st.requests {
		if q.get {
			rep.getMs = append(rep.getMs, ms[i])
		} else {
			rep.postMs = append(rep.postMs, ms[i])
		}
	}
	return rep
}

// check holds the server's ledger to the design: nothing simulated
// since priming, every repeat POST a cache hit.
func (st *warmState) check(o *outcome, reps int) (statsSnapshot, error) {
	snap, err := st.server.stats()
	if err != nil {
		return snap, err
	}
	n := uint64(len(st.specs.lines))
	if snap.Counters.Executed != n || snap.Counters.Enqueued != n {
		o.problemf("executed %d enqueued %d after the timed region, want %d/%d: repeat submissions were simulated", snap.Counters.Executed, snap.Counters.Enqueued, n, n)
	}
	if want := uint64(reps * st.posts); snap.Cache.Hits != want {
		o.problemf("cache hits %d, want %d (one per repeat POST)", snap.Cache.Hits, want)
	}
	if snap.Cache.Evictions != 0 {
		o.problemf("%d cache evictions: the working set no longer fits the default cache", snap.Cache.Evictions)
	}
	return snap, nil
}

func runServeWarm(cfg runConfig) (*outcome, error) {
	if cfg.trace {
		return runServeWarmTraced(cfg)
	}
	o := newOutcome()
	var st *warmState
	setup, err := cfg.measureSetup(3, func() error {
		if st != nil {
			st.server.close()
		}
		s, err := cfg.warmSetup()
		st = s
		return err
	})
	if err != nil {
		return nil, err
	}
	defer st.server.close()
	var rates []float64
	samples := newSampleRing(latencySamples)
	reps, _ := cfg.repeat(func(i int) error {
		r := st.rep(o, int64(i), nil)
		rates = append(rates, float64(len(st.requests))/r.seconds)
		samples.add(r.postMs...)
		samples.add(r.getMs...)
		return nil
	})
	latency := samples.values()
	heap := heapLiveMB() // the server, its cache and retained job records are still referenced
	if _, err := st.check(o, reps); err != nil {
		return nil, err
	}
	cfg.checkGolden(o, "serve_warm", goldenEntry{Digest: st.specs.digest})

	o.values["setup_s"] = setup
	o.values["ops_per_s"] = median(rates)
	o.values["op_p50_ms"] = median(latency)
	o.values["heap_live_mb"] = heap
	o.notef("op = one request (90%% repeat POST ?wait=1 under a permuted field order, 10%% GET by id); ops_per_s = completed requests per host second, %d clients", serveClients)
	o.notef("%d repetitions of %d requests over %d primed specs, rate spread %.2f%%, %d latency samples, p99 %.4f ms",
		reps, len(st.requests), len(st.specs.lines), 100*spread(rates), len(latency), percentile(latency, 99))
	return o, nil
}

// probeHandler times ServeHTTP on an in-memory recorder: the handler's
// own cost with no socket, no client and no scheduler hand-off.
func probeHandler(srv *serve.Server, buf *spanBuf, name, method, target, body string, want []byte) (float64, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	srv.ServeHTTP(rec, req)
	t1 := time.Now()
	buf.add(name, t0, t1, -1, 0)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), want) {
		return 0, fmt.Errorf("%s: HTTP %d, X-Cache %q, body match %v", name, rec.Code, rec.Header().Get("X-Cache"), bytes.Equal(rec.Body.Bytes(), want))
	}
	return float64(t1.Sub(t0)) / 1e3, nil
}

func runServeWarmTraced(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	st, err := cfg.warmSetup()
	if err != nil {
		return nil, err
	}
	defer st.server.close()
	epoch := time.Now()
	total := len(st.requests)
	pairs := 3
	if cfg.quick {
		pairs = 1
	}
	bufs := make([]*spanBuf, serveClients)
	for k := range bufs {
		bufs[k] = newSpanBuf(epoch, 10+k, pairs*total*2)
	}
	var plainRates, tracedRates, postMs, getMs []float64
	var mem memDelta
	for i := 0; i < pairs; i++ {
		runtime.GC()
		before := readMem()
		u := st.rep(o, int64(2*i), nil)
		if i == 0 {
			mem = memSince(before)
		}
		t := st.rep(o, int64(2*i+1), bufs)
		plainRates = append(plainRates, float64(total)/u.seconds)
		tracedRates = append(tracedRates, float64(total)/t.seconds)
		postMs = append(append(postMs, u.postMs...), t.postMs...)
		getMs = append(append(getMs, u.getMs...), t.getMs...)
	}
	snap, err := st.check(o, 2*pairs)
	if err != nil {
		return nil, err
	}

	// Direct probes of the layers under a hit, one sample per request
	// of the list so they see the same mix of specs.
	probes := total
	if probes > 2000 {
		probes = 2000
	}
	probeBuf := newSpanBuf(epoch, 3, probes*4)
	var hitUs, getUs, keyUs, canonUs []float64
	for _, q := range st.requests {
		if len(hitUs) >= probes {
			break
		}
		if q.get {
			continue
		}
		us, err := probeHandler(st.server.srv, probeBuf, "probe.handler_hit", "POST", "/v1/jobs?wait=1", q.body, st.refs[q.spec])
		if err != nil {
			o.problemf("%v", err)
			break
		}
		hitUs = append(hitUs, us)
		us, err = probeHandler(st.server.srv, probeBuf, "probe.get_by_id", "GET", "/v1/jobs/"+st.specs.keys[q.spec], "", st.refs[q.spec])
		if err != nil {
			o.problemf("%v", err)
			break
		}
		getUs = append(getUs, us)

		t0 := time.Now()
		scn, err := metrofuzz.DecodeSpecStrict(q.body)
		line := metrofuzz.EncodeSpec(scn)
		t1 := time.Now()
		key := serve.Key(line, serve.EngineReference, false)
		t2 := time.Now()
		probeBuf.add("probe.canon", t0, t1, -1, 0)
		probeBuf.add("probe.key", t1, t2, -1, 0)
		if err != nil || key != st.specs.keys[q.spec] {
			o.problemf("permuted spec does not canonicalise to its key: %v", err)
			break
		}
		canonUs = append(canonUs, float64(t1.Sub(t0))/1e3)
		keyUs = append(keyUs, float64(t2.Sub(t1))/1e3)
	}
	series, scrapeMs, err := st.server.scrapeMetrics(20)
	if err != nil {
		return nil, err
	}
	cfg.checkGolden(o, "serve_warm", goldenEntry{Digest: st.specs.digest})

	o.values["trace_overhead_pct"] = 100 * (median(plainRates)/median(tracedRates) - 1)
	o.values["op_p99_ms"] = percentile(append(append([]float64(nil), postMs...), getMs...), 99)
	o.values["serve.handler_hit_us_p50"] = median(hitUs)
	o.values["serve.handler_hit_us_p99"] = percentile(hitUs, 99)
	o.values["serve.http_overhead_us_p50"] = median(postMs)*1e3 - median(hitUs)
	o.values["serve.get_by_id_us_p50"] = median(getUs)
	o.values["serve.key_us"] = median(keyUs)
	o.values["metrofuzz.canon_us"] = median(canonUs)
	o.values["serve.sse_dropped_frames"] = series["serve_sse_dropped_frames_total"]
	o.values["metrics.scrape_ms_p50"] = median(scrapeMs)
	var bodyBytes int
	for _, b := range st.refs {
		bodyBytes += len(b)
	}
	o.values["serve.result_bytes_mean"] = float64(bodyBytes) / float64(len(st.refs))
	snap.report(o)
	mem.report(o, 0) // no simulated cycles on this workload
	o.values["host.allocs_per_request"] = float64(mem.mallocs) / float64(total)
	o.values["host.alloc_kb_per_request"] = float64(mem.allocBytes) / 1e3 / float64(total)

	path, err := writeTrace(cfg.outDir, "serve_warm", append(bufs, probeBuf)...)
	if err != nil {
		return nil, err
	}
	o.notef("%d untraced/traced repetition pairs of %d requests, %d direct probes per layer, trace %s", pairs, total, len(hitUs), path)
	return o, nil
}
