package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"metro/internal/clock"
	"metro/internal/metrofuzz"
	"metro/internal/netsim"
)

// quickSpec is the canonical encoding of a small generated scenario —
// valid, fast to simulate, and deterministic.
func quickSpec(t *testing.T, seed int64) string {
	t.Helper()
	return metrofuzz.EncodeSpec(metrofuzz.Generate(seed))
}

// newTestServer starts an in-process Server (with workers, unlike the
// queue-admission tests) and registers a bounded drain on cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, hs
}

func submit(t *testing.T, base, spec, query string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs"+query, "text/plain", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSubmitErrors pins every API error path with its status code and a
// recognizable message.
func TestSubmitErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	valid := quickSpec(t, 1)

	cases := []struct {
		name    string
		spec    string
		query   string
		status  int
		wantErr string
	}{
		{"malformed field", "mf1;topo=fig1;w=banana", "", http.StatusBadRequest, "metrofuzz"},
		{"malformed seed", "mf1;topo=fig1;ns=banana", "", http.StatusBadRequest, "metrofuzz: field ns: "},
		{"unknown version", "mf9;topo=fig1", "", http.StatusBadRequest, "metrofuzz"},
		{"empty body", "", "", http.StatusBadRequest, "empty spec"},
		{"trailing garbage", valid + ";w=8 trailing junk", "", http.StatusBadRequest, "whitespace or control byte"},
		{"second line smuggled", valid + "\nmf1;topo=fig1\n", "", http.StatusBadRequest, "whitespace or control byte"},
		{"unknown engine", valid, "?engine=warp", http.StatusBadRequest, "unknown engine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := submit(t, hs.URL, tc.spec, tc.query)
			body := readBody(t, resp)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d; body: %s", resp.StatusCode, tc.status, body)
			}
			var ep errorPayload
			if err := json.Unmarshal(body, &ep); err != nil {
				t.Fatalf("error body is not JSON: %v; body: %s", err, body)
			}
			if !strings.Contains(ep.Error, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", ep.Error, tc.wantErr)
			}
		})
	}

	t.Run("oversized body", func(t *testing.T) {
		resp := submit(t, hs.URL, "mf1;"+strings.Repeat("x", maxSpecBytes), "")
		readBody(t, resp)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", resp.StatusCode)
		}
	})

	t.Run("unknown job", func(t *testing.T) {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + strings.Repeat("0", 64))
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
	})
}

// TestQueueFull asserts the 429 admission path: with no workers the
// queue never drains, so the first QueueDepth distinct specs are
// admitted and the next is refused.
func TestQueueFull(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 0, QueueDepth: 2})
	for i := int64(1); i <= 2; i++ {
		resp := submit(t, hs.URL, quickSpec(t, i), "")
		readBody(t, resp)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	resp := submit(t, hs.URL, quickSpec(t, 3), "")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestCoalescing asserts a duplicate of a queued job attaches to the
// in-flight record (X-Coalesced) instead of consuming queue depth.
func TestCoalescing(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 0, QueueDepth: 1})
	spec := quickSpec(t, 1)
	first := submit(t, hs.URL, spec, "")
	readBody(t, first)
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: status %d", first.StatusCode)
	}
	if got := first.Header.Get("X-Coalesced"); got != "" {
		t.Fatalf("first submission coalesced: %q", got)
	}
	// The queue is now full; only coalescing lets the duplicate in.
	dup := submit(t, hs.URL, spec, "")
	readBody(t, dup)
	if dup.StatusCode != http.StatusAccepted {
		t.Fatalf("duplicate: status %d, want 202", dup.StatusCode)
	}
	if dup.Header.Get("X-Coalesced") != "true" {
		t.Fatal("duplicate not marked X-Coalesced")
	}
	if dup.Header.Get("X-Job") != first.Header.Get("X-Job") {
		t.Fatal("duplicate got a different job ID")
	}
	// A distinct spec, by contrast, is refused: the queue really is full.
	other := submit(t, hs.URL, quickSpec(t, 2), "")
	readBody(t, other)
	if other.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("distinct spec: status %d, want 429", other.StatusCode)
	}
}

// TestDrainRejects asserts a draining server refuses new work with 503
// while a completed job remains pollable.
func TestDrainRejects(t *testing.T) {
	s := New(Config{Workers: 1})
	hs := httptest.NewServer(s)
	defer hs.Close()
	spec := quickSpec(t, 1)
	done := submit(t, hs.URL, spec, "?wait=1")
	readBody(t, done)
	if done.StatusCode != http.StatusOK {
		t.Fatalf("warmup run: status %d", done.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp := submit(t, hs.URL, quickSpec(t, 2), "")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body: %s", resp.StatusCode, body)
	}
	// The cached pre-drain result is still served.
	hit := submit(t, hs.URL, spec, "")
	readBody(t, hit)
	if hit.StatusCode != http.StatusOK || hit.Header.Get("X-Cache") != "hit" {
		t.Fatalf("post-drain cache read: status %d, X-Cache %q", hit.StatusCode, hit.Header.Get("X-Cache"))
	}
}

// TestDeadline asserts a job that exceeds its execution budget reports
// status "deadline" as 504 and is never cached.
func TestDeadline(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, JobTimeout: time.Nanosecond, ProgressPeriod: 1})
	resp := submit(t, hs.URL, quickSpec(t, 1), "?wait=1")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body: %s", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusDeadline {
		t.Fatalf("status %q, want %q", res.Status, StatusDeadline)
	}
	if st := s.cache.Stats(); st.Entries != 0 {
		t.Fatalf("deadline result was cached (%d entries); deadline outcomes are load accidents, not content", st.Entries)
	}
	// Polling the retained record also reports 504.
	poll, err := http.Get(hs.URL + "/v1/jobs/" + resp.Header.Get("X-Job"))
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, poll)
	if poll.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("poll status %d, want 504", poll.StatusCode)
	}
}

// TestJobPanicIsolated: a scenario whose run panics completes as a failed
// result carrying the panic text, is counted in serve_job_panics_total and
// kept out of the result cache, and the worker that ran it goes on to
// serve the next job.
func TestJobPanicIsolated(t *testing.T) {
	bad := quickSpec(t, 3)
	orig := runScenario
	runScenario = func(scn metrofuzz.Scenario, h metrofuzz.Hooks) *metrofuzz.Report {
		if metrofuzz.EncodeSpec(scn) == bad {
			panic("injected: router state torn")
		}
		return orig(scn, h)
	}
	t.Cleanup(func() { runScenario = orig })
	s, hs := newTestServer(t, Config{Workers: 1})

	resp := submit(t, hs.URL, bad, "?wait=1")
	body := readBody(t, resp)
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("status %d, body %s: %v", resp.StatusCode, body, err)
	}
	if resp.StatusCode != http.StatusOK || res.Status != StatusFailed ||
		len(res.Failures) != 1 || res.Failures[0] != "panic: injected: router state torn" {
		t.Fatalf("panicking job: status %d, result %+v", resp.StatusCode, res)
	}
	if _, ok := s.cache.Get(res.ID); ok {
		t.Fatal("a panicked job's result was cached")
	}

	good := submit(t, hs.URL, quickSpec(t, 2), "?wait=1")
	if body := readBody(t, good); good.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"status":"passed"`)) {
		t.Fatalf("the job after the panic: status %d, body %s", good.StatusCode, body)
	}
	if n := s.met.jobPanics.Value(); n != 1 {
		t.Fatalf("serve_job_panics_total = %d, want 1", n)
	}
	if c := s.counters(); c.Executed != 2 {
		t.Fatalf("executed %d jobs, want 2", c.Executed)
	}
}

// workerPanicKernel wraps a network's compiled kernel so that from cycle
// 32 on the eval phase of every partition but the first panics: a unit
// failing on an engine worker goroutine.
type workerPanicKernel struct{ clock.Kernel }

func (k workerPanicKernel) EvalUnits(lo, hi int, cycle uint64) {
	if lo > 0 && cycle >= 32 {
		panic("injected: unit failed on an engine worker")
	}
	k.Kernel.EvalUnits(lo, hi, cycle)
}

// TestEngineWorkerPanicIsolated: a unit that panics on an engine worker
// goroutine, in the differential leg a Workers > 0 scenario runs, no longer
// ends the process. The engine re-raises the panic on the job's goroutine
// after the phase barrier, the job completes as a failed result carrying
// the panic text, and the daemon goes on serving.
func TestEngineWorkerPanicIsolated(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // partition 1 runs on a goroutine of its own
	bad := quickSpec(t, 3)
	orig := runScenario
	runScenario = func(scn metrofuzz.Scenario, h metrofuzz.Hooks) *metrofuzz.Report {
		if metrofuzz.EncodeSpec(scn) == bad {
			// The primary leg steps inline, one partition; the parallel
			// leg steps two, the second on a worker.
			scn.Workers = 2
			h.Mutate = func(n *netsim.Network) { n.Engine.SetKernel(workerPanicKernel{n.Engine.Kernel()}) }
		}
		return orig(scn, h)
	}
	t.Cleanup(func() { runScenario = orig })
	s, hs := newTestServer(t, Config{Workers: 1})

	resp := submit(t, hs.URL, bad, "?wait=1")
	body := readBody(t, resp)
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("status %d, body %s: %v", resp.StatusCode, body, err)
	}
	if resp.StatusCode != http.StatusOK || res.Status != StatusFailed ||
		len(res.Failures) != 1 || res.Failures[0] != "panic: injected: unit failed on an engine worker" {
		t.Fatalf("job with a panicking engine worker: status %d, result %+v", resp.StatusCode, res)
	}
	good := submit(t, hs.URL, quickSpec(t, 2), "?wait=1")
	if body := readBody(t, good); good.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"status":"passed"`)) {
		t.Fatalf("the job after the panic: status %d, body %s", good.StatusCode, body)
	}
	if n := s.met.jobPanics.Value(); n != 1 {
		t.Fatalf("serve_job_panics_total = %d, want 1", n)
	}
}

// TestCacheHitByteIdentity is the core tentpole assertion, in-process:
// a repeat submission is served from the cache, byte-identical to the
// first response, without executing again. The witness is the executed
// counter, not timing.
func TestCacheHitByteIdentity(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2})
	spec := quickSpec(t, 1)

	miss := submit(t, hs.URL, spec, "?wait=1")
	missBody := readBody(t, miss)
	if miss.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d; body: %s", miss.StatusCode, missBody)
	}
	if got := miss.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first run X-Cache %q, want miss", got)
	}

	executedAfterFirst := s.counters().Executed

	hit := submit(t, hs.URL, spec, "?wait=1")
	hitBody := readBody(t, hit)
	if hit.StatusCode != http.StatusOK {
		t.Fatalf("resubmission: status %d", hit.StatusCode)
	}
	if got := hit.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("resubmission X-Cache %q, want hit", got)
	}
	if !bytes.Equal(missBody, hitBody) {
		t.Fatalf("cache hit body differs from first response:\nfirst: %s\nhit:   %s", missBody, hitBody)
	}

	executedAfterHit := s.counters().Executed
	served := s.counters().CacheServed
	if executedAfterHit != executedAfterFirst {
		t.Fatalf("resubmission re-simulated: executed %d -> %d", executedAfterFirst, executedAfterHit)
	}
	if served == 0 {
		t.Fatal("cacheServed counter did not advance")
	}

	// The reordered-but-equal spec hits the same entry: the key is
	// content-addressed over the canonical encoding.
	fields := strings.Split(spec, ";")
	reordered := strings.Join(append(append([]string{fields[0]}, fields[len(fields)-1]), fields[1:len(fields)-1]...), ";")
	if reordered == spec {
		t.Fatalf("test bug: reordering produced the identical line %q", spec)
	}
	re := submit(t, hs.URL, reordered, "?wait=1")
	reBody := readBody(t, re)
	if re.Header.Get("X-Cache") != "hit" {
		t.Fatalf("reordered spec missed the cache (X-Cache %q)", re.Header.Get("X-Cache"))
	}
	if !bytes.Equal(missBody, reBody) {
		t.Fatal("reordered spec served different bytes")
	}
}

// TestCacheHitServesStoredBytes pins the hit path's contract now that it
// no longer decodes the body: whatever bytes the cache holds for a key
// are served as they are, 200 and `X-Cache: hit`, on both the POST and
// the GET-by-id path, for a passed and for a failed result alike (the
// failed body is seeded straight into the cache; not even valid JSON is
// required of it). The one outcome that is not a 200, a deadline, never
// reaches the cache, so it is still a 504 on the wait=1 and
// retained-job paths and a resubmission is still a miss.
func TestCacheHitServesStoredBytes(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1})
	for i, body := range []string{
		`{"id":"x","status":"passed","summary":"ok"}` + "\n",
		`{"id":"x","status":"failed","summary":"oracle tripped"}` + "\n",
		"not json at all: the hit path must not care\n",
	} {
		spec := quickSpec(t, int64(100+i))
		id := Key(spec, EngineReference, false)
		s.cache.Put(id, []byte(body))
		for _, get := range []func() (*http.Response, error){
			func() (*http.Response, error) {
				return http.Post(hs.URL+"/v1/jobs?wait=1", "text/plain", strings.NewReader(spec))
			},
			func() (*http.Response, error) { return http.Get(hs.URL + "/v1/jobs/" + id) },
		} {
			resp, err := get()
			if err != nil {
				t.Fatal(err)
			}
			got := readBody(t, resp)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
				t.Fatalf("body %d via %s: status %d, X-Cache %q; want 200, hit", i, resp.Request.Method, resp.StatusCode, resp.Header.Get("X-Cache"))
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("body %d via %s: Content-Type %q", i, resp.Request.Method, ct)
			}
			if string(got) != body {
				t.Fatalf("body %d via %s: served %q, cache holds %q", i, resp.Request.Method, got, body)
			}
		}
	}
	executed := s.counters().Executed
	if executed != 0 {
		t.Fatalf("%d job(s) executed: a seeded hit must not simulate", executed)
	}

	d, dhs := newTestServer(t, Config{Workers: 1, JobTimeout: time.Nanosecond, ProgressPeriod: 1})
	spec := quickSpec(t, 1)
	for attempt, wantCoalesced := range []string{"", "true"} {
		resp := submit(t, dhs.URL, spec, "?wait=1")
		readBody(t, resp)
		if resp.StatusCode != http.StatusGatewayTimeout || resp.Header.Get("X-Cache") != "miss" || resp.Header.Get("X-Coalesced") != wantCoalesced {
			t.Fatalf("deadline submission %d: status %d, X-Cache %q, X-Coalesced %q; want 504, miss, %q",
				attempt, resp.StatusCode, resp.Header.Get("X-Cache"), resp.Header.Get("X-Coalesced"), wantCoalesced)
		}
	}
	poll, err := http.Get(dhs.URL + "/v1/jobs/" + Key(spec, EngineReference, false))
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, poll)
	if poll.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("retained deadline job polls as %d, want 504", poll.StatusCode)
	}
	if st := d.cache.Stats(); st.Entries != 0 {
		t.Fatalf("deadline result was cached (%d entries)", st.Entries)
	}
}

// TestEngineAndTraceAddressing asserts the execution options are part
// of the content address: kernel and trace submissions of the same spec
// are distinct entries with the extra body content they promise.
func TestEngineAndTraceAddressing(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	spec := quickSpec(t, 1)

	plain := readBody(t, submit(t, hs.URL, spec, "?wait=1"))
	kernel := submit(t, hs.URL, spec, "?wait=1&engine=kernel")
	kernelBody := readBody(t, kernel)
	if kernel.Header.Get("X-Cache") != "miss" {
		t.Fatal("kernel submission hit the reference entry")
	}
	var pr, kr Result
	if err := json.Unmarshal(plain, &pr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(kernelBody, &kr); err != nil {
		t.Fatal(err)
	}
	hasKernel := func(oracles []string) bool {
		for _, o := range oracles {
			if o == "kernel" {
				return true
			}
		}
		return false
	}
	if hasKernel(pr.Oracles) || !hasKernel(kr.Oracles) {
		t.Fatalf("oracle lists wrong: reference %v, kernel %v", pr.Oracles, kr.Oracles)
	}
	if pr.Cycles != kr.Cycles || pr.Delivered != kr.Delivered {
		t.Fatalf("determinism broken across engines: %+v vs %+v", pr, kr)
	}

	traced := submit(t, hs.URL, spec, "?wait=1&trace=1")
	tracedBody := readBody(t, traced)
	if traced.Header.Get("X-Cache") != "miss" {
		t.Fatal("traced submission hit the untraced entry")
	}
	var tr Result
	if err := json.Unmarshal(tracedBody, &tr); err != nil {
		t.Fatal(err)
	}
	if pr.Trace != "" || tr.Trace == "" {
		t.Fatalf("trace presence wrong: plain %d bytes, traced %d bytes", len(pr.Trace), len(tr.Trace))
	}
	if !strings.HasPrefix(tr.Trace, "mtr1") {
		t.Fatalf("trace is not an mtr1 stream: %.40q", tr.Trace)
	}

	// GET /trace serves the stream verbatim; the untraced entry 404s.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + traced.Header.Get("X-Job") + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	got := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || string(got) != tr.Trace {
		t.Fatalf("trace endpoint: status %d, %d bytes, want %d", resp.StatusCode, len(got), len(tr.Trace))
	}
	resp, err = http.Get(hs.URL + "/v1/jobs/" + plainJobID(t, plain) + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced trace fetch: status %d, want 404", resp.StatusCode)
	}
}

func plainJobID(t *testing.T, body []byte) string {
	t.Helper()
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	return res.ID
}

// readEvents reads a job's SSE stream up to its done frame, returning
// the progress frames and the done frame's data.
func readEvents(t *testing.T, base, id string) ([]progressPayload, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	var progress []progressPayload
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		v, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "progress":
			var p progressPayload
			if err := json.Unmarshal([]byte(v), &p); err != nil {
				t.Fatalf("bad progress frame %q: %v", v, err)
			}
			progress = append(progress, p)
		case "done":
			return progress, []byte(v)
		}
	}
	t.Fatalf("event stream ended without a done frame after %d progress frames", len(progress))
	return nil, nil
}

// assertProgressForward fails unless no progress frame's cycle or counts
// fall below the frame before it.
func assertProgressForward(t *testing.T, progress []progressPayload) {
	t.Helper()
	if len(progress) == 0 {
		t.Fatal("no progress frames replayed for a completed job")
	}
	for i := 1; i < len(progress); i++ {
		p, f := progress[i-1], progress[i]
		if f.Cycle < p.Cycle || f.Offered < p.Offered || f.Completed < p.Completed || f.Delivered < p.Delivered {
			t.Fatalf("progress frame %d ran backwards: %+v after %+v", i, f, p)
		}
	}
}

// TestEventStream asserts the SSE endpoint replays progress for a
// completed job, its frames never running backwards across the primary
// leg and the parallel replay, and terminates with the done event
// carrying the result.
func TestEventStream(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, ProgressPeriod: 16})
	first := submit(t, hs.URL, quickSpec(t, 1), "?wait=1")
	firstBody := readBody(t, first)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d", first.StatusCode)
	}
	progress, doneData := readEvents(t, hs.URL, first.Header.Get("X-Job"))
	assertProgressForward(t, progress)
	if !bytes.Equal(append(doneData, '\n'), firstBody) {
		t.Fatalf("done event differs from served result:\ndone: %s\nbody: %s", doneData, firstBody)
	}
}

// TestKernelEventStreamForward runs a job with a parallel replay and a
// reference replay (wk>0, engine=kernel) and asserts its progress frames
// never run backwards and that the stream ends, once per leg, on the
// result's cycle and counts.
func TestKernelEventStreamForward(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, ProgressPeriod: 16})
	if metrofuzz.Generate(0).Workers == 0 {
		t.Fatal("seed 0 no longer asks for parallel workers")
	}
	first := submit(t, hs.URL, quickSpec(t, 0), "?wait=1&engine=kernel")
	var res Result
	if err := json.Unmarshal(readBody(t, first), &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusPassed {
		t.Fatalf("run: status %q, failures %v", res.Status, res.Failures)
	}
	progress, _ := readEvents(t, hs.URL, res.ID)
	assertProgressForward(t, progress)
	final := progressPayload{Cycle: res.Cycles, Offered: res.Offered, Completed: res.Offered, Delivered: res.Delivered}
	ends := 0
	for _, p := range progress {
		if p == final {
			ends++
		}
	}
	if ends < 3 {
		t.Fatalf("%d progress frames carry the result's %+v, want one per leg (3)", ends, final)
	}
}

// TestStats asserts /v1/stats reports the counters that make cache
// behaviour observable.
func TestStats(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	spec := quickSpec(t, 1)
	readBody(t, submit(t, hs.URL, spec, "?wait=1"))
	readBody(t, submit(t, hs.URL, spec, "?wait=1"))
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	var st statsPayload
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats not JSON: %v; body: %s", err, body)
	}
	if st.Counters.Submitted != 2 || st.Counters.Executed != 1 || st.Counters.CacheServed != 1 {
		t.Fatalf("counters %+v, want submitted=2 executed=1 cacheServed=1", st.Counters)
	}
	if st.Cache.Entries != 1 || st.Cache.Hits != 1 {
		t.Fatalf("cache stats %+v", st.Cache)
	}
}

// TestConcurrentDuplicates hammers one spec from many goroutines and
// asserts exactly one execution with every response byte-identical —
// the coalescing/caching invariant under contention (run with -race).
func TestConcurrentDuplicates(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 4})
	spec := quickSpec(t, 1)
	const clients = 16
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/v1/jobs?wait=1", "text/plain", strings.NewReader(spec))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d served different bytes", i)
		}
	}
	executed := s.counters().Executed
	if executed != 1 {
		t.Fatalf("%d executions for %d identical submissions, want 1", executed, clients)
	}
}
