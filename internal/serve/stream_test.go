package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"metro/internal/metrofuzz"
)

// TestHubLiveSubscriber exercises the live fan-out path directly: a
// subscriber attached before publication receives events in order, a
// saturated subscriber has events dropped rather than blocking the
// publisher, and close terminates every channel.
func TestHubLiveSubscriber(t *testing.T) {
	h := newHub("test-job", jobObs{})
	replay, live, cancel := h.subscribe()
	defer cancel()
	if len(replay) != 0 || live == nil {
		t.Fatalf("fresh hub: %d replayed events, live=%v", len(replay), live)
	}
	h.publish(streamEvent{name: "progress", data: []byte("{}")}, true)
	h.publish(streamEvent{name: "gauge", data: []byte("{}")}, false)
	if ev := <-live; ev.name != "progress" {
		t.Fatalf("first live event %q", ev.name)
	}
	if ev := <-live; ev.name != "gauge" {
		t.Fatalf("second live event %q", ev.name)
	}

	// Replay carries only kept events.
	replay2, _, cancel2 := h.subscribe()
	cancel2()
	if len(replay2) != 1 || replay2[0].name != "progress" {
		t.Fatalf("replay %v, want the single kept progress event", replay2)
	}

	// Saturate: publishes beyond the channel depth are dropped, not
	// blocking — this call returning at all is the assertion.
	for i := 0; i < subBuffer+16; i++ {
		h.publish(streamEvent{name: "gauge", data: []byte("{}")}, false)
	}
	h.mu.Lock()
	dropped := h.dropped
	h.mu.Unlock()
	if dropped == 0 {
		t.Fatal("saturated subscriber recorded no drops")
	}

	h.close()
	for range live {
	}
	// Publishing after close is a no-op, and double-cancel is safe.
	h.publish(streamEvent{name: "late", data: nil}, true)
	cancel()
}

// TestHubHistoryBound asserts the replay history drops oldest beyond
// the bound.
func TestHubHistoryBound(t *testing.T) {
	h := newHub("test-job", jobObs{})
	for i := 0; i < historyBound+10; i++ {
		h.publish(streamEvent{name: "progress", data: []byte{byte(i)}}, true)
	}
	replay, _, cancel := h.subscribe()
	cancel()
	if len(replay) != historyBound {
		t.Fatalf("history %d events, want bound %d", len(replay), historyBound)
	}
	if replay[0].data[0] != 10 {
		t.Fatalf("oldest surviving event %d, want 10 (drop-oldest)", replay[0].data[0])
	}
}

// TestHubHistoryRingOrder publishes three times the bound and then some,
// so the ring has wrapped several times and its oldest event sits mid-way,
// and checks that the replay is exactly the last historyBound events,
// oldest first.
func TestHubHistoryRingOrder(t *testing.T) {
	h := newHub("test-job", jobObs{})
	const n = 3*historyBound + 7
	for i := 0; i < n; i++ {
		h.publish(streamEvent{name: "progress", data: []byte(strconv.Itoa(i))}, true)
	}
	replay, _, cancel := h.subscribe()
	cancel()
	if len(replay) != historyBound {
		t.Fatalf("history %d events, want bound %d", len(replay), historyBound)
	}
	for k, ev := range replay {
		if want := strconv.Itoa(n - historyBound + k); string(ev.data) != want {
			t.Fatalf("replay[%d] = %q, want %q: the last %d events in publish order", k, ev.data, want, historyBound)
		}
	}
}

// TestLiveEventStream subscribes to a queued job *before* it runs, so
// the SSE handler exercises the live-follow path end to end: replay
// (empty), then live progress, then the terminal done event.
func TestLiveEventStream(t *testing.T) {
	// No workers yet: submit first so the subscription provably begins
	// before execution.
	s, hs := newTestServer(t, Config{Workers: 0, ProgressPeriod: 8, GaugeEvery: 1})
	spec := quickSpec(t, 1)
	resp := submit(t, hs.URL, spec, "")
	readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Job")

	events, err := http.Get(hs.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()

	// Now start a worker to run the queued job.
	s.wg.Add(1)
	go s.worker()

	progress, done := 0, false
	sc := bufio.NewScanner(events.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			event = v
		} else if _, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			switch event {
			case "progress":
				progress++
			case "done":
				done = true
			}
		}
		if done {
			break
		}
	}
	if progress == 0 || !done {
		t.Fatalf("live stream: %d progress frames, done=%v", progress, done)
	}
}

// TestEventStreamClientDisconnect asserts a subscriber vanishing
// mid-stream does not wedge the job: the handler returns on context
// cancellation and the run completes for everyone else.
func TestEventStreamClientDisconnect(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, ProgressPeriod: 4})
	spec := quickSpec(t, 2)
	resp := submit(t, hs.URL, spec, "")
	readBody(t, resp)
	id := resp.Header.Get("X-Job")

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", hs.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	events, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a little, then walk away mid-stream.
	buf := make([]byte, 64)
	events.Body.Read(buf)
	cancel()
	events.Body.Close()

	// The job still completes and is served normally.
	final := submit(t, hs.URL, spec, "?wait=1")
	body := readBody(t, final)
	if final.StatusCode != http.StatusOK {
		t.Fatalf("run after disconnect: status %d; body: %s", final.StatusCode, body)
	}
}

// TestGaugeFrames asserts gauge telemetry reaches SSE subscribers via
// the recorder sink: a live subscriber on a traced scenario sees gauge
// frames with parseable payloads.
func TestGaugeFrames(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 0, ProgressPeriod: 64, GaugeEvery: 1})
	spec := quickSpec(t, 1)
	resp := submit(t, hs.URL, spec, "")
	readBody(t, resp)
	id := resp.Header.Get("X-Job")
	events, err := http.Get(hs.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	s.wg.Add(1)
	go s.worker()

	gauges := 0
	sc := bufio.NewScanner(events.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			event = v
		} else if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			if event == "gauge" {
				var g gaugePayload
				if err := json.Unmarshal([]byte(data), &g); err != nil {
					t.Fatalf("bad gauge frame %q: %v", data, err)
				}
				if g.Kind == "" {
					t.Fatalf("gauge frame without a kind: %q", data)
				}
				gauges++
			}
		}
		if event == "done" {
			break
		}
	}
	if gauges == 0 {
		t.Fatal("no gauge frames observed; the recorder sink is not wired to the hub")
	}
}

// TestHealthz pins liveness as load-independent: 200 with the same body
// before and during drain. Readiness state lives on /v1/readyz.
func TestHealthz(t *testing.T) {
	s := New(Config{Workers: 1})
	hs := httptestServer(t, s)
	get := func() string {
		resp, err := http.Get(hs + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d", resp.StatusCode)
		}
		return string(body)
	}
	if got := get(); got != "{\"ok\":true}\n" {
		t.Fatalf("healthz before drain: %q", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := get(); got != "{\"ok\":true}\n" {
		t.Fatalf("healthz after drain: %q", got)
	}
}

// TestDrainCancelsInFlight asserts the drain deadline path: a job still
// running when the drain budget expires is canceled cooperatively and
// recorded as a deadline outcome, and Drain itself returns.
func TestDrainCancelsInFlight(t *testing.T) {
	s := New(Config{Workers: 1, ProgressPeriod: 1})
	hs := httptestServer(t, s)
	// A job that effectively never finishes on its own within the test:
	// the biggest message budget the grammar admits.
	scn := metrofuzz.Generate(1)
	scn.Messages = 2000
	spec := metrofuzz.EncodeSpec(scn)
	resp, err := http.Post(hs+"/v1/jobs", "text/plain", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Job")

	// An already-expired drain context forces the cancel path at once.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain with expired context reported success")
	}
	// The worker has exited; the job settled as deadline (or finished
	// legitimately if it won the race — both are terminal).
	pollResp, err := http.Get(hs + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, pollResp)
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("job not terminal after drain: %s", body)
	}
	switch res.Status {
	case StatusDeadline, StatusPassed, StatusFailed:
	default:
		t.Fatalf("status %q after drain", res.Status)
	}
}

// httptestServer wraps a Server without the automatic drain cleanup,
// for tests that drive Drain themselves.
func httptestServer(t *testing.T, s *Server) string {
	t.Helper()
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	return hs.URL
}
