package serve

import (
	"net/http"
	"strconv"

	"metro/internal/clock"
	"metro/internal/metrics"
	"metro/internal/telemetry"
)

// Histogram bucket layouts. Seconds-scaled, tuned to the serving SLOs:
// queue waits should sit in the low milliseconds on a healthy server,
// job durations span quick smoke specs to multi-second congested runs.
var (
	queueWaitBuckets   = []float64{0.001, 0.005, 0.02, 0.1, 0.5, 2, 10}
	jobDurationBuckets = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120}
)

// jobSimGauges is the per-engine set of last-completed-job simulation
// gauges derived from the telemetry→metrics bridge: a live degradation
// signal (ROADMAP item 5), not a per-run archive — each completed job
// overwrites its engine's cells.
type jobSimGauges struct {
	throughput *metrics.Gauge // delivered messages per simulated cycle
	retryRate  *metrics.Gauge // retries per offered message
	dropRate   *metrics.Gauge // failures per offered message
	maxQueue   *metrics.Gauge // peak network-wide send-queue occupancy
}

// serveMetrics bundles everything the server exports on /v1/metrics.
// All handles are resolved at construction, so request- and job-path
// updates are single atomic operations; only the per-request route/code
// counter resolves labels dynamically (off the simulation path, where a
// map lookup is acceptable).
type serveMetrics struct {
	reg *metrics.Registry

	// HTTP plane.
	httpRequests *metrics.CounterVec // route, code

	// Admission plane. Submissions = cacheHit + coalesced + enqueued +
	// rejectedFull + rejectedDraining.
	admCacheHit         *metrics.Counter
	admCoalesced        *metrics.Counter
	admEnqueued         *metrics.Counter
	admRejectedFull     *metrics.Counter
	admRejectedDraining *metrics.Counter

	// Queue and worker plane.
	queueWait   *metrics.Histogram
	inflight    *metrics.Gauge
	executed    *metrics.Counter
	durPassed   *metrics.Histogram
	durFailed   *metrics.Histogram
	durDeadline *metrics.Histogram
	jobPanics   *metrics.Counter

	// SSE plane.
	sseSubscribers *metrics.Gauge
	sseDropped     *metrics.Counter

	// Simulation plane: fleet-wide message totals (fed by the
	// telemetry→metrics bridge on every job), per-engine last-job
	// gauges, and the engine's own throughput gauges.
	simDelivered  *metrics.Counter
	simRetried    *metrics.Counter
	simFailed     *metrics.Counter
	jobSim        map[Engine]*jobSimGauges // lookup only; never ranged over
	engineMetrics *clock.EngineMetrics
}

// newServeMetrics registers the full metric surface. Registration order
// is irrelevant to exposition (families serialize name-sorted); the
// grouping here mirrors the serving pipeline for readers.
func newServeMetrics(s *Server) *serveMetrics {
	r := metrics.NewRegistry()
	m := &serveMetrics{reg: r}

	m.httpRequests = r.CounterVec("serve_http_requests_total",
		"HTTP requests by mux route pattern and status code.", "route", "code")

	adm := r.CounterVec("serve_admission_total",
		"Submission admission outcomes; the sum is total submissions.", "outcome")
	m.admCacheHit = adm.With("cache_hit")
	m.admCoalesced = adm.With("coalesced")
	m.admEnqueued = adm.With("enqueued")
	m.admRejectedFull = adm.With("rejected_full")
	m.admRejectedDraining = adm.With("rejected_draining")

	r.GaugeFunc("serve_queue_depth", "Jobs waiting in the admission queue.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.queuedNow)
	})
	r.GaugeFunc("serve_draining", "1 while the server is draining, else 0.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.draining {
			return 1
		}
		return 0
	})
	r.Gauge("serve_queue_capacity", "Admission queue bound; submissions beyond it see 429.").
		Set(float64(s.cfg.QueueDepth))
	r.Gauge("serve_workers", "Configured simulation worker fleet size.").
		Set(float64(s.cfg.Workers))
	m.queueWait = r.Histogram("serve_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up.", queueWaitBuckets)
	m.inflight = r.Gauge("serve_jobs_inflight",
		"Jobs currently executing on workers (busy workers).")
	m.executed = r.Counter("serve_jobs_executed_total",
		"Jobs a worker actually simulated (cache hits and coalesced submissions excluded).")
	dur := r.HistogramVec("serve_job_duration_seconds",
		"Wall time per executed job by outcome; bucket counts double as per-outcome job totals.",
		jobDurationBuckets, "outcome")
	m.durPassed = dur.With(StatusPassed)
	m.durFailed = dur.With(StatusFailed)
	m.durDeadline = dur.With(StatusDeadline)
	m.jobPanics = r.Counter("serve_job_panics_total",
		"Jobs whose simulation panicked; each completes as an uncached failed result.")

	r.CounterFunc("serve_cache_hits_total", "Result-cache hits.", func() float64 {
		return float64(s.cache.Stats().Hits)
	})
	r.CounterFunc("serve_cache_misses_total", "Result-cache misses.", func() float64 {
		return float64(s.cache.Stats().Misses)
	})
	r.CounterFunc("serve_cache_evictions_total", "Result-cache LRU evictions.", func() float64 {
		return float64(s.cache.Stats().Evictions)
	})
	r.GaugeFunc("serve_cache_entries", "Results currently cached.", func() float64 {
		return float64(s.cache.Stats().Entries)
	})
	r.GaugeFunc("serve_cache_bytes", "Bytes of cached result bodies.", func() float64 {
		return float64(s.cache.Stats().Bytes)
	})
	r.Gauge("serve_cache_budget_bytes", "Result-cache LRU byte budget.").
		Set(float64(s.cfg.CacheBytes))

	m.sseSubscribers = r.Gauge("serve_sse_subscribers",
		"Open SSE event-stream subscriptions across all jobs.")
	m.sseDropped = r.Counter("serve_sse_dropped_frames_total",
		"SSE frames dropped because a subscriber's buffer was full (slow client).")

	m.simDelivered = r.Counter("sim_messages_delivered_total",
		"Messages delivered and verified across all executed jobs (telemetry bridge).")
	m.simRetried = r.Counter("sim_messages_retried_total",
		"Message retries across all executed jobs (telemetry bridge).")
	m.simFailed = r.Counter("sim_messages_failed_total",
		"Messages that exhausted their retry budget across all executed jobs (telemetry bridge).")

	m.jobSim = make(map[Engine]*jobSimGauges)
	thr := r.GaugeVec("sim_job_delivered_throughput",
		"Last completed job: delivered messages per simulated cycle.", "engine")
	rr := r.GaugeVec("sim_job_retry_rate",
		"Last completed job: retries per offered message.", "engine")
	dr := r.GaugeVec("sim_job_drop_rate",
		"Last completed job: failed deliveries per offered message.", "engine")
	mq := r.GaugeVec("sim_job_max_queue_depth",
		"Last completed job: peak network-wide send-queue occupancy.", "engine")
	for _, eng := range []Engine{EngineReference, EngineKernel} {
		m.jobSim[eng] = &jobSimGauges{
			throughput: thr.With(string(eng)),
			retryRate:  rr.With(string(eng)),
			dropRate:   dr.With(string(eng)),
			maxQueue:   mq.With(string(eng)),
		}
	}

	m.engineMetrics = &clock.EngineMetrics{
		CyclesPerSec: r.Gauge("sim_cycles_per_second",
			"Engine throughput in simulated cycles per second, sampled on the metrics cycle grid; last-writer-wins across concurrent jobs."),
		StepNs: r.Gauge("sim_step_ns",
			"Mean wall nanoseconds per simulated cycle over the last sampling window; last-writer-wins across concurrent jobs."),
		KernelUnits: r.Gauge("sim_kernel_units",
			"Evaluation units in the most recently compiled kernel plane."),
		KernelLinks: r.Gauge("sim_kernel_links",
			"Arena-resident links in the most recently compiled kernel plane."),
		KernelArenas: r.Gauge("sim_kernel_arenas",
			"Delay-class link arenas in the most recently compiled kernel plane."),
	}

	return m
}

// publishJobSim stores one completed job's bridge tallies into its
// engine's last-job gauges and fleet-wide rate inputs.
func (m *serveMetrics) publishJobSim(engine Engine, cycles uint64, st telemetry.SinkStats) {
	g, ok := m.jobSim[engine]
	if !ok {
		return
	}
	if cycles > 0 {
		g.throughput.Set(float64(st.Delivered) / float64(cycles))
	}
	if st.Offered > 0 {
		g.retryRate.Set(float64(st.Retried) / float64(st.Offered))
		g.dropRate.Set(float64(st.Failed) / float64(st.Offered))
	}
	g.maxQueue.Set(float64(st.MaxQueueDepth))
}

// statusWriter captures the response code and size for the request log
// and the route/code counter, passing flushes through so SSE streaming
// works unchanged behind it.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.ResponseController, which
// handlers use for connection deadlines.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// handleMetrics serves the Prometheus text exposition of a registry
// snapshot. The body carries no timestamps: byte differences between
// scrapes are value changes, nothing else.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	s.met.reg.Snapshot().WriteText(w)
}

// formatCode renders an HTTP status for the route/code counter label.
func formatCode(code int) string { return strconv.Itoa(code) }
