package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"log/slog"

	"metro/internal/metrics"
	"metro/internal/telemetry"
)

// metricsGolden is the complete /v1/metrics body of a fresh server with
// Workers=2, QueueDepth=8, CacheBytes=1MiB. A fresh scrape carries no
// wallclock-derived values, so the exposition is fully deterministic —
// this test pins the whole metric namespace: any added, renamed, or
// re-helped metric shows up as a diff here.
const metricsGolden = `# HELP serve_admission_total Submission admission outcomes; the sum is total submissions.
# TYPE serve_admission_total counter
serve_admission_total{outcome="cache_hit"} 0
serve_admission_total{outcome="coalesced"} 0
serve_admission_total{outcome="enqueued"} 0
serve_admission_total{outcome="rejected_draining"} 0
serve_admission_total{outcome="rejected_full"} 0
# HELP serve_cache_budget_bytes Result-cache LRU byte budget.
# TYPE serve_cache_budget_bytes gauge
serve_cache_budget_bytes 1048576
# HELP serve_cache_bytes Bytes of cached result bodies.
# TYPE serve_cache_bytes gauge
serve_cache_bytes 0
# HELP serve_cache_entries Results currently cached.
# TYPE serve_cache_entries gauge
serve_cache_entries 0
# HELP serve_cache_evictions_total Result-cache LRU evictions.
# TYPE serve_cache_evictions_total counter
serve_cache_evictions_total 0
# HELP serve_cache_hits_total Result-cache hits.
# TYPE serve_cache_hits_total counter
serve_cache_hits_total 0
# HELP serve_cache_misses_total Result-cache misses.
# TYPE serve_cache_misses_total counter
serve_cache_misses_total 0
# HELP serve_draining 1 while the server is draining, else 0.
# TYPE serve_draining gauge
serve_draining 0
# HELP serve_http_requests_total HTTP requests by mux route pattern and status code.
# TYPE serve_http_requests_total counter
# HELP serve_job_duration_seconds Wall time per executed job by outcome; bucket counts double as per-outcome job totals.
# TYPE serve_job_duration_seconds histogram
serve_job_duration_seconds_bucket{outcome="deadline",le="0.01"} 0
serve_job_duration_seconds_bucket{outcome="deadline",le="0.05"} 0
serve_job_duration_seconds_bucket{outcome="deadline",le="0.25"} 0
serve_job_duration_seconds_bucket{outcome="deadline",le="1"} 0
serve_job_duration_seconds_bucket{outcome="deadline",le="5"} 0
serve_job_duration_seconds_bucket{outcome="deadline",le="30"} 0
serve_job_duration_seconds_bucket{outcome="deadline",le="120"} 0
serve_job_duration_seconds_bucket{outcome="deadline",le="+Inf"} 0
serve_job_duration_seconds_sum{outcome="deadline"} 0
serve_job_duration_seconds_count{outcome="deadline"} 0
serve_job_duration_seconds_bucket{outcome="failed",le="0.01"} 0
serve_job_duration_seconds_bucket{outcome="failed",le="0.05"} 0
serve_job_duration_seconds_bucket{outcome="failed",le="0.25"} 0
serve_job_duration_seconds_bucket{outcome="failed",le="1"} 0
serve_job_duration_seconds_bucket{outcome="failed",le="5"} 0
serve_job_duration_seconds_bucket{outcome="failed",le="30"} 0
serve_job_duration_seconds_bucket{outcome="failed",le="120"} 0
serve_job_duration_seconds_bucket{outcome="failed",le="+Inf"} 0
serve_job_duration_seconds_sum{outcome="failed"} 0
serve_job_duration_seconds_count{outcome="failed"} 0
serve_job_duration_seconds_bucket{outcome="passed",le="0.01"} 0
serve_job_duration_seconds_bucket{outcome="passed",le="0.05"} 0
serve_job_duration_seconds_bucket{outcome="passed",le="0.25"} 0
serve_job_duration_seconds_bucket{outcome="passed",le="1"} 0
serve_job_duration_seconds_bucket{outcome="passed",le="5"} 0
serve_job_duration_seconds_bucket{outcome="passed",le="30"} 0
serve_job_duration_seconds_bucket{outcome="passed",le="120"} 0
serve_job_duration_seconds_bucket{outcome="passed",le="+Inf"} 0
serve_job_duration_seconds_sum{outcome="passed"} 0
serve_job_duration_seconds_count{outcome="passed"} 0
# HELP serve_job_panics_total Jobs whose simulation panicked; each completes as an uncached failed result.
# TYPE serve_job_panics_total counter
serve_job_panics_total 0
# HELP serve_jobs_executed_total Jobs a worker actually simulated (cache hits and coalesced submissions excluded).
# TYPE serve_jobs_executed_total counter
serve_jobs_executed_total 0
# HELP serve_jobs_inflight Jobs currently executing on workers (busy workers).
# TYPE serve_jobs_inflight gauge
serve_jobs_inflight 0
# HELP serve_queue_capacity Admission queue bound; submissions beyond it see 429.
# TYPE serve_queue_capacity gauge
serve_queue_capacity 8
# HELP serve_queue_depth Jobs waiting in the admission queue.
# TYPE serve_queue_depth gauge
serve_queue_depth 0
# HELP serve_queue_wait_seconds Time jobs spent queued before a worker picked them up.
# TYPE serve_queue_wait_seconds histogram
serve_queue_wait_seconds_bucket{le="0.001"} 0
serve_queue_wait_seconds_bucket{le="0.005"} 0
serve_queue_wait_seconds_bucket{le="0.02"} 0
serve_queue_wait_seconds_bucket{le="0.1"} 0
serve_queue_wait_seconds_bucket{le="0.5"} 0
serve_queue_wait_seconds_bucket{le="2"} 0
serve_queue_wait_seconds_bucket{le="10"} 0
serve_queue_wait_seconds_bucket{le="+Inf"} 0
serve_queue_wait_seconds_sum 0
serve_queue_wait_seconds_count 0
# HELP serve_sse_dropped_frames_total SSE frames dropped because a subscriber's buffer was full (slow client).
# TYPE serve_sse_dropped_frames_total counter
serve_sse_dropped_frames_total 0
# HELP serve_sse_subscribers Open SSE event-stream subscriptions across all jobs.
# TYPE serve_sse_subscribers gauge
serve_sse_subscribers 0
# HELP serve_workers Configured simulation worker fleet size.
# TYPE serve_workers gauge
serve_workers 2
# HELP sim_cycles_per_second Engine throughput in simulated cycles per second, sampled on the metrics cycle grid; last-writer-wins across concurrent jobs.
# TYPE sim_cycles_per_second gauge
sim_cycles_per_second 0
# HELP sim_job_delivered_throughput Last completed job: delivered messages per simulated cycle.
# TYPE sim_job_delivered_throughput gauge
sim_job_delivered_throughput{engine="kernel"} 0
sim_job_delivered_throughput{engine="reference"} 0
# HELP sim_job_drop_rate Last completed job: failed deliveries per offered message.
# TYPE sim_job_drop_rate gauge
sim_job_drop_rate{engine="kernel"} 0
sim_job_drop_rate{engine="reference"} 0
# HELP sim_job_max_queue_depth Last completed job: peak network-wide send-queue occupancy.
# TYPE sim_job_max_queue_depth gauge
sim_job_max_queue_depth{engine="kernel"} 0
sim_job_max_queue_depth{engine="reference"} 0
# HELP sim_job_retry_rate Last completed job: retries per offered message.
# TYPE sim_job_retry_rate gauge
sim_job_retry_rate{engine="kernel"} 0
sim_job_retry_rate{engine="reference"} 0
# HELP sim_kernel_arenas Delay-class link arenas in the most recently compiled kernel plane.
# TYPE sim_kernel_arenas gauge
sim_kernel_arenas 0
# HELP sim_kernel_links Arena-resident links in the most recently compiled kernel plane.
# TYPE sim_kernel_links gauge
sim_kernel_links 0
# HELP sim_kernel_units Evaluation units in the most recently compiled kernel plane.
# TYPE sim_kernel_units gauge
sim_kernel_units 0
# HELP sim_messages_delivered_total Messages delivered and verified across all executed jobs (telemetry bridge).
# TYPE sim_messages_delivered_total counter
sim_messages_delivered_total 0
# HELP sim_messages_failed_total Messages that exhausted their retry budget across all executed jobs (telemetry bridge).
# TYPE sim_messages_failed_total counter
sim_messages_failed_total 0
# HELP sim_messages_retried_total Message retries across all executed jobs (telemetry bridge).
# TYPE sim_messages_retried_total counter
sim_messages_retried_total 0
# HELP sim_step_ns Mean wall nanoseconds per simulated cycle over the last sampling window; last-writer-wins across concurrent jobs.
# TYPE sim_step_ns gauge
sim_step_ns 0
`

// TestMetricsExpositionGolden scrapes a fresh server and compares the
// exposition byte-for-byte, then checks the scrape's own request is
// visible to the next scrape (the route/code counter increments after
// the handler runs, so a scrape never observes itself).
func TestMetricsExpositionGolden(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, CacheBytes: 1 << 20})
	hs := httptestServer(t, s)
	resp, err := http.Get(hs + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("content type %q, want %q", ct, metrics.ContentType)
	}
	body := string(readBody(t, resp))
	if body != metricsGolden {
		t.Fatalf("exposition drifted from golden.\n--- got ---\n%s--- end ---", body)
	}

	resp2, err := http.Get(hs + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2 := string(readBody(t, resp2))
	if !strings.Contains(body2, `serve_http_requests_total{code="200",route="GET /v1/metrics"} 1`) {
		t.Fatalf("second scrape does not count the first:\n%s", body2)
	}
}

// TestReadyz pins the readiness probe: ready when serving with queue
// headroom, 503 when the queue is saturated (the next submission would
// 429), 503 while draining. Liveness (/v1/healthz) stays 200 throughout
// — TestHealthz covers that side.
func TestReadyz(t *testing.T) {
	s := New(Config{Workers: 0, QueueDepth: 1})
	hs := httptestServer(t, s)
	get := func() (int, readyzPayload) {
		t.Helper()
		resp, err := http.Get(hs + "/v1/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var p readyzPayload
		if err := json.Unmarshal(readBody(t, resp), &p); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, p
	}

	if code, p := get(); code != http.StatusOK || !p.Ready {
		t.Fatalf("fresh server: readyz %d ready=%v", code, p.Ready)
	}

	// Saturate the one-deep queue (no workers drain it).
	resp := submit(t, hs, quickSpec(t, 3), "")
	readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if code, p := get(); code != http.StatusServiceUnavailable || p.Ready || p.Queued != 1 {
		t.Fatalf("saturated queue: readyz %d %+v", code, p)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code, p := get(); code != http.StatusServiceUnavailable || !p.Draining {
		t.Fatalf("draining: readyz %d %+v", code, p)
	}
}

// TestSSEDropAccounting drives the hub's slow-subscriber path directly:
// every dropped frame increments the counter, the first drop on a
// connection logs exactly once, and the subscriber gauge tracks
// subscribe/cancel/close.
func TestSSEDropAccounting(t *testing.T) {
	r := metrics.NewRegistry()
	obs := jobObs{
		subscribers: r.Gauge("subs", ""),
		dropped:     r.Counter("dropped", ""),
	}
	var logBuf bytes.Buffer
	obs.log = slog.New(slog.NewTextHandler(&logBuf, nil))
	h := newHub("job-abc", obs)

	live, cancel := h.subscribe()
	if live == nil || obs.subscribers.Value() != 1 {
		t.Fatalf("after subscribe: live=%v subs=%v", live, obs.subscribers.Value())
	}

	const overflow = 50
	gauge := telemetry.Event{Kind: telemetry.EvGaugeConns, Src: telemetry.NetworkSource(-1)}
	for i := 0; i < subBuffer+overflow; i++ {
		h.publishGauge(&gauge)
	}
	if got := obs.dropped.Value(); got != overflow {
		t.Fatalf("dropped counter %d, want %d", got, overflow)
	}
	logs := logBuf.String()
	if n := strings.Count(logs, "sse_slow_subscriber"); n != 1 {
		t.Fatalf("slow-subscriber warning logged %d times, want exactly 1:\n%s", n, logs)
	}
	if !strings.Contains(logs, "job-abc") {
		t.Fatalf("warning does not carry the job ID:\n%s", logs)
	}

	cancel()
	if obs.subscribers.Value() != 0 {
		t.Fatalf("after cancel: subs=%v", obs.subscribers.Value())
	}
	cancel() // double-cancel must not go negative
	if obs.subscribers.Value() != 0 {
		t.Fatalf("after double cancel: subs=%v", obs.subscribers.Value())
	}

	// close() releases subscribers that never canceled.
	_, _ = h.subscribe()
	if obs.subscribers.Value() != 1 {
		t.Fatalf("resubscribe: subs=%v", obs.subscribers.Value())
	}
	h.close()
	if obs.subscribers.Value() != 0 {
		t.Fatalf("after close: subs=%v", obs.subscribers.Value())
	}
}

// stallQueued is a slog.Handler that keeps the job states it is given, in
// the order it writes them, and holds each "queued" record until the job
// has left the admission queue: a worker that logs "running" without
// waiting for that line then writes it first. The stall holds no lock
// the worker's record needs; it polls s.mu only to read the queue length.
type stallQueued struct {
	s      *Server
	mu     sync.Mutex
	states []string
}

func (h *stallQueued) Enabled(context.Context, slog.Level) bool { return true }
func (h *stallQueued) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *stallQueued) WithGroup(string) slog.Handler            { return h }

func (h *stallQueued) Handle(_ context.Context, rec slog.Record) error {
	if rec.Message != "job" {
		return nil
	}
	var state string
	rec.Attrs(func(a slog.Attr) bool {
		if a.Key == "state" {
			state = a.Value.String()
		}
		return true
	})
	// The worker takes the job off the queue whether or not it then waits
	// for this line, so the poll ends either way.
	for state == StatusQueued && h.queued() > 0 {
		runtime.Gosched()
	}
	h.mu.Lock()
	h.states = append(h.states, state)
	h.mu.Unlock()
	return nil
}

func (h *stallQueued) queued() int {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.queuedNow
}

// TestJobLogOrder holds a job's "queued" line back until a worker has
// taken the job, and requires the "running" line to come after it all
// the same: a job's lines follow its transitions however the handler's
// and the worker's logging interleave.
func TestJobLogOrder(t *testing.T) {
	h := &stallQueued{}
	s := New(Config{Workers: 1, Logger: slog.New(h)})
	h.s = s
	hs := httptestServer(t, s)
	resp := submit(t, hs, quickSpec(t, 4), "?wait=1")
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.states) != 3 || h.states[0] != StatusQueued || h.states[1] != StatusRunning {
		t.Fatalf("job state lines %v, want [queued running <terminal>]", h.states)
	}
}

// TestStructuredLogs runs one job end to end under a JSON logger and
// checks the log stream: a queued/running/terminal line per job state
// (each carrying the job ID) and a request line for the submission.
func TestStructuredLogs(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	s := New(Config{Workers: 1, Logger: logger})
	hs := httptestServer(t, s)

	resp := submit(t, hs, quickSpec(t, 4), "?wait=1")
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Job")

	// Join the worker: the terminal job line lands after ?wait=1 returns.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	type line struct {
		Msg   string `json:"msg"`
		Job   string `json:"job"`
		State string `json:"state"`
		Route string `json:"route"`
	}
	var states []string
	requests := 0
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("unparseable log line %q: %v", raw, err)
		}
		switch {
		case l.Msg == "job" && l.Job == id:
			states = append(states, l.State)
		case l.Msg == "request" && l.Route == "POST /v1/jobs" && l.Job == id:
			requests++
		}
	}
	if len(states) != 3 || states[0] != StatusQueued || states[1] != StatusRunning {
		t.Fatalf("job %s state transitions %v, want [queued running <terminal>]", id, states)
	}
	switch states[2] {
	case StatusPassed, StatusFailed, StatusDeadline:
	default:
		t.Fatalf("terminal state %q", states[2])
	}
	if requests != 1 {
		t.Fatalf("%d request lines for the submission, want 1", requests)
	}

	// The run is also visible on /v1/metrics.
	mresp, err := http.Get(hs + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody := string(readBody(t, mresp))
	for _, want := range []string{
		`serve_admission_total{outcome="enqueued"} 1`,
		"serve_jobs_executed_total 1",
		"serve_jobs_inflight 0",
		"serve_queue_wait_seconds_count 1",
	} {
		if !strings.Contains(mbody, want) {
			t.Fatalf("metrics after job missing %q:\n%s", want, mbody)
		}
	}
}
