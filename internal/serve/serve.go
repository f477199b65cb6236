// Package serve is the metroserve daemon's engine room: a multi-tenant
// simulation service that accepts scenario specs in the versioned mf1
// codec (the same wire format `metrofuzz -replay` consumes), executes
// them on a bounded worker fleet under the full oracle battery, streams
// cycle-stamped progress and telemetry gauges over Server-Sent Events,
// and memoizes results in a content-addressed cache.
//
// The cache is sound because the engine is deterministic: metrovet
// enforces (and metrofuzz's differentials prove) that a run is a pure
// function of its spec, so equal canonical specs — under the same
// execution options and engine revision — have equal results, and a
// repeat submission can be served from stored bytes without
// simulating. Degradation is explicit rather than accidental: a full
// queue answers 429, a per-job deadline cancels cooperatively through
// the metrofuzz Progress hook and reports 504, and a draining server
// refuses new work with 503 while finishing what it accepted.
//
// See docs/SERVING.md for the HTTP API and the soundness argument in
// full.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"metro/internal/metrofuzz"
	"metro/internal/telemetry"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the simulation worker fleet size; 0 starts no workers
	// (useful in tests that need jobs to stay queued).
	Workers int
	// QueueDepth bounds the admission queue; a submission beyond it is
	// refused with 429. Defaults to 64 when 0.
	QueueDepth int
	// CacheBytes is the result cache's LRU byte budget. Defaults to
	// 64 MiB when 0.
	CacheBytes int64
	// JobTimeout is the per-job execution deadline; 0 means no deadline.
	JobTimeout time.Duration
	// ProgressPeriod is the cycle period of progress frames (and
	// cancellation polls); 0 selects metrofuzz.DefaultProgressPeriod.
	ProgressPeriod uint64
	// GaugeEvery forwards only gauge samples whose cycle is a multiple
	// of this period to SSE subscribers; 0 forwards every sample.
	GaugeEvery uint64
	// Logger receives structured request and job-state-transition logs
	// (one line each, carrying the job ID that names the SSE stream and
	// cache key). Nil discards logs — the library is silent unless the
	// embedder wires a logger; cmd/metroserve always does, selecting the
	// handler with its -log-format flag.
	Logger *slog.Logger
}

const (
	// traceCapacity bounds a trace=1 job's flight-recorder ring in
	// events (640 KiB at the 40-byte telemetry.Event, held while the job
	// runs). A job submitted without trace=1 streams its events to the
	// metrics bridge and SSE forwarder only and has no ring at all.
	traceCapacity = 1 << 14
	// retention bounds completed-job records kept for polling beyond
	// the result cache (deadline results are never cached, so their
	// records are the only place to poll them).
	retention = 4096
)

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Counters is the queue/worker side of /v1/stats: a view of the
// registry cells /v1/metrics exposes, which are the one ledger.
type Counters struct {
	Submitted        uint64 `json:"submitted"`        // accepted submissions, including coalesced and cache hits
	CacheServed      uint64 `json:"cacheServed"`      // submissions answered from the cache
	Coalesced        uint64 `json:"coalesced"`        // submissions attached to an in-flight duplicate
	Enqueued         uint64 `json:"enqueued"`         // jobs admitted to the queue
	Executed         uint64 `json:"executed"`         // jobs a worker actually simulated
	Deadline         uint64 `json:"deadline"`         // jobs canceled by deadline or drain
	RejectedFull     uint64 `json:"rejectedFull"`     // 429s
	RejectedDraining uint64 `json:"rejectedDraining"` // 503s
}

// Server is the HTTP front end plus the worker fleet. Create with New,
// mount as an http.Handler, and call Drain to shut down gracefully.
type Server struct {
	cfg   Config
	cache *Cache
	mux   *http.ServeMux
	met   *serveMetrics
	log   *slog.Logger

	runCtx    context.Context
	cancelRun context.CancelFunc
	wg        sync.WaitGroup

	mu        sync.Mutex
	jobs      map[string]*job
	retained  []string // completed job IDs, oldest first
	queue     chan *job
	draining  bool
	queuedNow int
}

// New builds a server and starts its worker fleet.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		cache:     NewCache(cfg.CacheBytes),
		runCtx:    ctx,
		cancelRun: cancel,
		jobs:      make(map[string]*job),
		queue:     make(chan *job, cfg.QueueDepth),
	}
	s.log = cfg.Logger
	s.met = newServeMetrics(s)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP implements http.Handler: dispatch wrapped in the
// request-observability layer — one route/code counter increment and
// one structured log line per request, carrying the job ID when the
// handler assigned one (the X-Job header names the SSE stream and
// cache key too).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now() //metrovet:ignore no-wallclock request-latency observability; never reaches simulation state
	_, route := s.mux.Handler(r)
	if route == "" {
		route = "unmatched"
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	elapsed := time.Since(start) //metrovet:ignore no-wallclock request-latency observability; never reaches simulation state
	s.met.httpRequests.With(route, formatCode(sw.code)).Inc()
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("route", route),
		slog.Int("status", sw.code),
		slog.Int("bytes", sw.bytes),
		slog.Int64("dur_us", elapsed.Microseconds()),
		slog.String("job", sw.Header().Get("X-Job")),
	)
}

// Drain shuts the server down gracefully: new submissions are refused
// with 503, queued and running jobs are given until ctx expires to
// finish, then the remaining runs are canceled cooperatively (their
// submitters see status "deadline"). Drain returns once every worker
// has exited. It is idempotent; only the first call closes the queue.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.queue)
	}

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		s.cancelRun()
		return nil
	case <-ctx.Done():
		s.cancelRun() // cancel in-flight jobs at their next progress poll
		<-finished
		return ctx.Err()
	}
}

// worker drains the queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		s.queuedNow--
		j.mu.Lock()
		j.state = StatusRunning
		j.mu.Unlock()
		s.mu.Unlock()
		wait := time.Since(j.enqueuedAt) //metrovet:ignore no-wallclock queue-wait histogram; never reaches simulation state
		s.met.queueWait.Observe(wait.Seconds())
		s.met.inflight.Add(1)
		j.logged.Lock()
		s.log.LogAttrs(s.runCtx, slog.LevelInfo, "job",
			slog.String("job", j.id), slog.String("state", StatusRunning),
			slog.Int64("wait_us", wait.Microseconds()))
		s.runJob(j)
		s.met.inflight.Add(-1)
	}
}

// runJob executes one job under the oracle battery and publishes its
// result.
func (s *Server) runJob(j *job) {
	start := time.Now() //metrovet:ignore no-wallclock job-duration histogram; never reaches simulation state
	ctx := s.runCtx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	rec := s.jobRecorder(j.trace)
	// Compose the two streaming taps on the flight recorder: the SSE
	// gauge forwarder and the telemetry→metrics bridge both observe the
	// flusher's drain without blocking it.
	bridge := &telemetry.MetricsSink{
		Delivered: s.met.simDelivered,
		Retried:   s.met.simRetried,
		Failed:    s.met.simFailed,
	}
	gauges := j.gaugeSink(s.cfg.GaugeEvery)
	rec.SetSink(func(events []telemetry.Event) {
		bridge.Sink(events)
		gauges(events)
	})
	hooks := metrofuzz.Hooks{
		Recorder:       rec,
		EngineMetrics:  s.met.engineMetrics,
		KernelOracle:   j.engine == EngineKernel,
		ProgressPeriod: s.cfg.ProgressPeriod,
		Progress: func(cycle uint64, offered, completed, delivered int) bool {
			j.publishProgress(cycle, offered, completed, delivered)
			return ctx.Err() == nil
		},
	}
	rep, panicked := s.simulate(j, hooks)
	if panicked {
		rec = nil // whatever the recorder holds stops mid-cycle
	}

	res := buildResult(j, rep, rec)
	body := marshalResult(res)
	if res.Status != StatusDeadline && !panicked {
		// Deadline outcomes are a property of this server's load, not
		// of the spec — caching one would serve a timing accident as if
		// it were the deterministic result. A panic is a simulator bug,
		// which a fixed engine must be free to run again.
		s.cache.Put(j.id, body)
	}
	// The ledger comes before completion: complete wakes the wait=1
	// clients, and a client with its reply in hand must find the job
	// already counted in /v1/stats and /v1/metrics.
	elapsed := time.Since(start) //metrovet:ignore no-wallclock job-duration histogram; never reaches simulation state
	s.mu.Lock()
	s.retain(j.id)
	s.mu.Unlock()
	s.met.executed.Inc()
	switch res.Status {
	case StatusFailed:
		s.met.durFailed.Observe(elapsed.Seconds())
	case StatusDeadline:
		s.met.durDeadline.Observe(elapsed.Seconds())
	default:
		s.met.durPassed.Observe(elapsed.Seconds())
	}
	s.met.publishJobSim(j.engine, res.Cycles, bridge.Stats())

	j.complete(res, body)
	s.log.LogAttrs(s.runCtx, slog.LevelInfo, "job",
		slog.String("job", j.id), slog.String("state", res.Status),
		slog.Uint64("cycles", res.Cycles),
		slog.Int("offered", res.Offered), slog.Int("delivered", res.Delivered),
		slog.Int64("dur_us", elapsed.Microseconds()))
}

// runScenario executes a job's scenario under the oracle battery; tests
// replace it to make a run panic.
var runScenario = metrofuzz.Run

// simulate runs j's scenario. A panic in it (Build, the cycle loop, the
// oracles, or a unit on an engine worker goroutine of a partitioned leg,
// which the engine re-raises on the job's goroutine) is recovered into a
// report whose one "panic" failure carries the panic text, counted and
// logged, so the job completes as failed and the worker goes on serving.
func (s *Server) simulate(j *job, hooks metrofuzz.Hooks) (rep *metrofuzz.Report, panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			s.met.jobPanics.Inc()
			s.log.LogAttrs(s.runCtx, slog.LevelError, "job panicked",
				slog.String("job", j.id), slog.String("panic", fmt.Sprint(v)))
			rep = &metrofuzz.Report{Scenario: j.scn, Spec: j.spec,
				Failures: []metrofuzz.Failure{{Oracle: "panic", Detail: fmt.Sprint(v)}}}
			panicked = true
		}
	}()
	return runScenario(j.scn, hooks), false
}

// jobRecorder returns the flight recorder for one job. Only a trace=1
// result reads the ring back, so every other job gets a stream-only
// recorder: its sinks see the same events in the same order, and the
// job does not allocate and zero a ring nobody will snapshot.
func (s *Server) jobRecorder(trace bool) *telemetry.Recorder {
	if trace {
		return telemetry.New(telemetry.Options{Capacity: traceCapacity})
	}
	return telemetry.NewStream()
}

// retain records a completed job for polling and expires the oldest
// records beyond the retention bound. Callers hold s.mu.
func (s *Server) retain(id string) {
	s.retained = append(s.retained, id)
	for len(s.retained) > retention {
		old := s.retained[0]
		s.retained = s.retained[1:]
		delete(s.jobs, old)
	}
}

// --- handlers ----------------------------------------------------------

// maxSpecBytes bounds a submission body: the longest legal mf1 line
// (custom topology plus a full fault plan) is far below this.
const maxSpecBytes = 1 << 16

// bodyReadTimeout bounds how long a submission may take to deliver its
// body once its headers are in, so a client that stalls mid-body cannot
// pin a connection and a handler forever (the servers' header and idle
// timeouts stop short of the body). It covers the body alone: net/http
// clears the connection's read deadline once the body has been read to
// its end (it then starts the read that watches for the client leaving),
// so a wait=1 reply is awaited with none.
const bodyReadTimeout = 5 * time.Second

// errorPayload is the JSON error body.
type errorPayload struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, _ := json.Marshal(errorPayload{Error: fmt.Sprintf(format, args...)})
	w.Write(append(data, '\n'))
}

// writeResult serves a completed result body: 200 for settled runs,
// 504 for deadline outcomes (the job consumed its budget without
// finishing — the serving-path analogue of a gateway timeout).
func writeResult(w http.ResponseWriter, status string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if status == StatusDeadline {
		w.WriteHeader(http.StatusGatewayTimeout)
	}
	w.Write(body)
}

// writeCached serves a body out of the result cache, the stored bytes
// as they are. It is always a 200 and never decodes the body to find
// out: the one status that is not a 200 is a deadline outcome, and
// runJob never caches one.
func writeCached(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "hit")
	w.Write(body)
}

// handleSubmit admits one spec: cache hit → stored bytes; duplicate of
// an in-flight job → coalesce; otherwise validate, enqueue (429 when
// full, 503 when draining) and either return 202 with the job ID or,
// with ?wait=1, block until the result (504 on request-context
// deadline).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// A writer without deadline support (a test recorder) reads unbounded.
	// On the error paths the deadline also bounds the discard of the
	// unread rest of the body that net/http does before it replies.
	http.NewResponseController(w).SetReadDeadline(time.Now().Add(bodyReadTimeout)) //metrovet:ignore no-wallclock connection deadline for the body read; never reaches simulation state
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(raw) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", maxSpecBytes)
		return
	}
	engine := EngineReference
	switch v := r.URL.Query().Get("engine"); v {
	case "", string(EngineReference):
	case string(EngineKernel):
		engine = EngineKernel
	default:
		writeError(w, http.StatusBadRequest, "unknown engine %q (want %q or %q)", v, EngineReference, EngineKernel)
		return
	}
	trace := r.URL.Query().Get("trace") == "1"

	// Strict decode: the body must be exactly one mf1 line. The error
	// text distinguishes the unknown-version case (it names the
	// expected magic) from malformed fields and trailing garbage.
	scn, err := metrofuzz.DecodeSpecStrict(strings.TrimSuffix(string(raw), "\n"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec := metrofuzz.EncodeSpec(scn) // canonical form
	id := Key(spec, engine, trace)
	w.Header().Set("X-Job", id)

	if body, ok := s.cache.Get(id); ok {
		s.met.admCacheHit.Inc()
		writeCached(w, body)
		return
	}
	w.Header().Set("X-Cache", "miss")

	s.mu.Lock()
	j, exists := s.jobs[id]
	if exists {
		s.mu.Unlock()
		s.met.admCoalesced.Inc()
		w.Header().Set("X-Coalesced", "true")
	} else {
		if s.draining {
			s.mu.Unlock()
			s.met.admRejectedDraining.Inc()
			writeError(w, http.StatusServiceUnavailable, "server is draining; resubmit elsewhere")
			return
		}
		j = newJob(id, spec, scn, engine, trace, s.jobObs())
		j.enqueuedAt = time.Now() //metrovet:ignore no-wallclock queue-wait histogram origin; never reaches simulation state
		select {
		case s.queue <- j:
			s.jobs[id] = j
			s.queuedNow++
			// Counted under the lock runJob takes before it completes the
			// job, so no reader sees the job executed but not yet enqueued.
			s.met.admEnqueued.Inc()
			s.mu.Unlock()
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "job",
				slog.String("job", id), slog.String("state", StatusQueued),
				slog.String("engine", string(engine)), slog.Bool("trace", trace))
			j.logged.Unlock()
		default:
			s.mu.Unlock()
			s.met.admRejectedFull.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "queue full (%d jobs deep); retry later", s.cfg.QueueDepth)
			return
		}
	}

	if r.URL.Query().Get("wait") != "1" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		data, _ := json.Marshal(struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		}{ID: id, Status: j.status()})
		w.Write(append(data, '\n'))
		return
	}

	select {
	case <-j.done:
		res, body, _ := j.snapshot()
		writeResult(w, res.Status, body)
	case <-r.Context().Done():
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded waiting for job %s (still %s)", id, j.status())
	}
}

// handleJob reports a job's status or completed result.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if ok {
		if res, body, done := j.snapshot(); done {
			w.Header().Set("X-Cache", "hit")
			writeResult(w, res.Status, body)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		data, _ := json.Marshal(struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		}{ID: id, Status: j.status()})
		w.Write(append(data, '\n'))
		return
	}
	if body, ok := s.cache.Get(id); ok {
		writeCached(w, body)
		return
	}
	writeError(w, http.StatusNotFound, "unknown job %s", id)
}

// handleEvents streams a job's progress/gauge/done frames as SSE.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s (completed jobs past retention have no event stream)", id)
		return
	}
	serveEvents(w, r, j)
}

// handleTrace serves a job's recorded mtr1 telemetry stream.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var res *Result
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if ok {
		if got, _, done := j.snapshot(); done {
			res = got
		} else {
			writeError(w, http.StatusConflict, "job %s is still %s", id, j.status())
			return
		}
	} else if body, ok := s.cache.Get(id); ok {
		var parsed Result
		if err := json.Unmarshal(body, &parsed); err != nil {
			writeError(w, http.StatusInternalServerError, "corrupt cached result for %s", id)
			return
		}
		res = &parsed
	} else {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	if res.Trace == "" {
		writeError(w, http.StatusNotFound, "job %s recorded no trace; submit with ?trace=1", id)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, res.Trace)
}

// statsPayload is the /v1/stats body.
type statsPayload struct {
	Workers    int        `json:"workers"`
	QueueDepth int        `json:"queueDepth"`
	Queued     int        `json:"queued"`
	Draining   bool       `json:"draining"`
	Counters   Counters   `json:"counters"`
	Cache      CacheStats `json:"cache"`
}

// handleStats reports the serving counters — the cache-hit counter here
// is the timing-independent witness that repeat submissions skip
// simulation.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	p := statsPayload{
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		Queued:     s.queuedNow,
		Draining:   s.draining,
	}
	s.mu.Unlock()
	p.Counters = s.counters()
	p.Cache = s.cache.Stats()
	w.Header().Set("Content-Type", "application/json")
	data, _ := json.Marshal(p)
	w.Write(append(data, '\n'))
}

// counters reads the Counters view off the registry cells.
func (s *Server) counters() Counters {
	m := s.met
	c := Counters{
		CacheServed:      m.admCacheHit.Value(),
		Coalesced:        m.admCoalesced.Value(),
		Enqueued:         m.admEnqueued.Value(),
		Executed:         m.executed.Value(),
		Deadline:         m.durDeadline.Count(),
		RejectedFull:     m.admRejectedFull.Value(),
		RejectedDraining: m.admRejectedDraining.Value(),
	}
	c.Submitted = c.CacheServed + c.Coalesced + c.Enqueued + c.RejectedFull + c.RejectedDraining
	return c
}

// handleHealthz is the pure liveness probe: 200 whenever the process
// can serve HTTP, regardless of drain or load. Restart-deciders watch
// this; traffic-routers watch /v1/readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, "{\"ok\":true}\n")
}

// readyzPayload is the /v1/readyz body.
type readyzPayload struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	Queued   int  `json:"queued"`
	Capacity int  `json:"queueDepth"`
}

// handleReadyz is the readiness probe: 503 while draining (the server
// is leaving the fleet) or while the admission queue is saturated (the
// next submission would see 429 — route it elsewhere instead). Distinct
// from liveness so load balancers can pull a replica without anything
// restarting it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	p := readyzPayload{
		Draining: s.draining,
		Queued:   s.queuedNow,
		Capacity: s.cfg.QueueDepth,
	}
	s.mu.Unlock()
	p.Ready = !p.Draining && p.Queued < p.Capacity
	w.Header().Set("Content-Type", "application/json")
	if !p.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	data, _ := json.Marshal(p)
	w.Write(append(data, '\n'))
}
