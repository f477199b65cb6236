package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"metro/internal/metrofuzz"
	"metro/internal/telemetry"
)

// TestHubLiveSubscriber exercises the live fan-out path directly: a
// subscriber attached before publication reads events in order, a
// saturated subscriber has events dropped rather than blocking the
// publisher, and close ends every stream.
func TestHubLiveSubscriber(t *testing.T) {
	h := newHub("test-job", jobObs{})
	sub, cancel := h.subscribe()
	defer cancel()
	if replay, _ := h.read(sub, nil); len(replay) != 0 || sub == nil {
		t.Fatalf("fresh hub: %d replayed events, live=%v", len(replay), sub)
	}
	gauge := telemetry.Event{Kind: telemetry.EvGaugeConns, Src: telemetry.NetworkSource(-1)}
	h.publish(streamEvent{name: "progress", data: []byte("{}")})
	h.publishGauge(&gauge)
	live, _ := h.read(sub, nil)
	if len(live) != 2 || live[0].name != "progress" {
		t.Fatalf("live events %v, want progress then gauge", live)
	}
	if ev := live[1]; ev.name != "gauge" {
		t.Fatalf("second live event %q", ev.name)
	}

	// Replay carries only kept events.
	sub2, cancel2 := h.subscribe()
	replay2, _ := h.read(sub2, nil)
	cancel2()
	if len(replay2) != 1 || replay2[0].name != "progress" {
		t.Fatalf("replay %v, want the single kept progress event", replay2)
	}

	// Saturate: publishes beyond the gauge slots are dropped, not
	// blocking — this call returning at all is the assertion.
	for i := 0; i < subBuffer+16; i++ {
		h.publishGauge(&gauge)
	}
	h.mu.Lock()
	dropped := h.dropped
	h.mu.Unlock()
	if dropped == 0 {
		t.Fatal("saturated subscriber recorded no drops")
	}

	h.close()
	if _, closed := h.read(sub, nil); !closed {
		t.Fatal("the stream is not closed after close")
	}
	// Publishing after close is a no-op, and double-cancel is safe.
	h.publish(streamEvent{name: "late", data: nil})
	cancel()
}

// TestHubHistoryBound asserts the replay history drops oldest beyond
// the bound.
func TestHubHistoryBound(t *testing.T) {
	h := newHub("test-job", jobObs{})
	for i := 0; i < historyBound+10; i++ {
		h.publish(streamEvent{name: "progress", data: []byte{byte(i)}})
	}
	sub, cancel := h.subscribe()
	replay, _ := h.read(sub, nil)
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
		h.publish(streamEvent{name: "progress", data: []byte(strconv.Itoa(i))})
	}
	sub, cancel := h.subscribe()
	replay, _ := h.read(sub, nil)
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

// TestSSEDropContract runs a job to a subscriber that never reads, the
// slowest client there is, and holds the hub to its drop contract: every
// progress frame and the done frame reach the replay history; the
// connection loses only gauge frames, its replayable frames waiting in the
// history until it reads; the dropped counters equal the gauge frames it
// did not get; and a gauge published to it while its gauge slots are full
// costs no allocation (the frame is never encoded).
func TestSSEDropContract(t *testing.T) {
	scn := metrofuzz.Generate(2)
	j := newJob("job", metrofuzz.EncodeSpec(scn), scn, EngineReference, false, jobObs{})
	sub, cancel := j.hub.subscribe()
	defer cancel()

	gauges, progress := 0, 0
	sink := j.gaugeSink(1)
	rec := telemetry.NewStream()
	rec.SetSink(func(events []telemetry.Event) {
		for i := range events {
			if events[i].Kind.Family() == "gauge" {
				gauges++
			}
		}
		sink(events)
	})
	rep := metrofuzz.Run(scn, metrofuzz.Hooks{
		Recorder:       rec,
		ProgressPeriod: 8,
		Progress: func(cycle uint64, offered, completed, delivered int) bool {
			j.publishProgress(cycle, offered, completed, delivered)
			progress++
			return true
		},
	})
	if rep.Failed() {
		t.Fatalf("scenario failed its oracles: %v", rep.Failures[0])
	}
	if progress+1 > historyBound {
		t.Fatalf("%d progress frames overflow the %d-frame history; pick a shorter run", progress, historyBound)
	}
	if len(sub.gauges) != subBuffer {
		t.Fatalf("the subscriber holds %d of %d gauge frames: the run never filled its slots", len(sub.gauges), subBuffer)
	}
	full := []telemetry.Event{{Cycle: 1, Kind: telemetry.EvGaugeConns, Src: telemetry.NetworkSource(0), A: 3}}
	if !raceEnabled {
		if a := testing.AllocsPerRun(100, func() { sink(full) }); a != 0 {
			t.Errorf("a gauge to a full subscriber: %v allocs, want 0", a)
		}
		gauges += 101 // AllocsPerRun's warm-up call and its 100 runs, each one gauge
	}
	res := buildResult(j, rep, nil)
	j.complete(res, marshalResult(res))

	// What the connection gets: its gauge frames and what waited for it
	// in the history.
	got, _ := j.hub.read(sub, nil)

	late, _ := j.hub.subscribe()
	history, _ := j.hub.read(late, nil)
	if len(history) != progress+1 || history[len(history)-1].name != "done" {
		t.Fatalf("history holds %d frames ending in %q, want the %d progress frames and done", len(history), history[len(history)-1].name, progress)
	}
	var replayable []streamEvent
	delivered := 0
	for _, ev := range got {
		if ev.name == "gauge" {
			delivered++
		} else {
			replayable = append(replayable, ev)
		}
	}
	if len(replayable) != len(history) {
		t.Fatalf("the connection got %d replayable frames, want all %d of the history", len(replayable), len(history))
	}
	for i := range history {
		if replayable[i].name != history[i].name || string(replayable[i].data) != string(history[i].data) {
			t.Fatalf("replayable frame %d is %s %s, want %s %s", i, replayable[i].name, replayable[i].data, history[i].name, history[i].data)
		}
	}
	j.hub.mu.Lock()
	dropped, subDropped := j.hub.dropped, sub.dropped
	j.hub.mu.Unlock()
	if want := uint64(gauges - delivered); dropped != want || subDropped != want {
		t.Errorf("dropped %d (connection %d), want the %d gauge frames of %d not delivered", dropped, subDropped, want, gauges)
	}

	// A full subscriber that no replayable frame waits for costs nothing
	// either: the gauge is dropped before it is encoded.
	h := newHub("job", jobObs{})
	idle, cancelIdle := h.subscribe()
	defer cancelIdle()
	for len(idle.gauges) < subBuffer {
		h.publishGauge(&full[0])
	}
	if !raceEnabled {
		if a := testing.AllocsPerRun(100, func() { h.publishGauge(&full[0]) }); a != 0 {
			t.Errorf("a gauge to a full subscriber owed nothing: %v allocs, want 0", a)
		}
	}
}

// gatedWriter is an SSE response writer whose client does not read until
// the gate opens: every Write blocks until then. The write that carries
// marker closes reached.
type gatedWriter struct {
	gate    chan struct{}
	marker  string
	reached chan struct{}
	hdr     http.Header
	out     strings.Builder
}

func (w *gatedWriter) Header() http.Header { return w.hdr }
func (w *gatedWriter) WriteHeader(int)     {}
func (w *gatedWriter) Flush()              {}
func (w *gatedWriter) Write(p []byte) (int, error) {
	<-w.gate
	if w.marker != "" && strings.Contains(string(p), w.marker) {
		w.marker = ""
		close(w.reached)
	}
	return w.out.Write(p)
}

// TestStalledStreamGetsEveryReplayableFrame drives serveEvents with a
// client that stops reading while the job publishes far more than the
// subscriber's channel holds: once it reads again it gets every progress
// frame, in order, while the job still runs, and then the done frame,
// with gauges dropped in between.
func TestStalledStreamGetsEveryReplayableFrame(t *testing.T) {
	scn := metrofuzz.Generate(2)
	j := newJob("job", metrofuzz.EncodeSpec(scn), scn, EngineReference, false, jobObs{})
	const frames = 2 * subBuffer
	w := &gatedWriter{
		gate: make(chan struct{}), hdr: http.Header{},
		marker: `data: {"cycle":` + strconv.Itoa(frames-1) + `,`, reached: make(chan struct{}),
	}
	served := make(chan struct{})
	go func() {
		serveEvents(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/job/events", nil), j)
		close(served)
	}()
	for !j.hub.watched() {
		runtime.Gosched()
	}
	gauge := telemetry.Event{Kind: telemetry.EvGaugeConns, Src: telemetry.NetworkSource(-1)}
	for i := range frames {
		j.publishProgress(uint64(i), i, 0, 0)
		j.hub.publishGauge(&gauge)
	}
	close(w.gate)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	select {
	case <-w.reached:
	case <-ctx.Done():
		t.Fatal("the reader drained its channel but never read the frames waiting in the history while the job ran")
	}
	res := &Result{ID: "job", Status: StatusPassed}
	j.complete(res, marshalResult(res))
	<-served

	next := 0
	for _, line := range strings.Split(w.out.String(), "\n") {
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || !strings.HasPrefix(data, `{"cycle":`) || strings.Contains(data, `"kind"`) {
			continue
		}
		var p progressPayload
		if err := json.Unmarshal([]byte(data), &p); err != nil {
			t.Fatal(err)
		}
		if int(p.Cycle) != next {
			t.Fatalf("progress frame for cycle %d after cycle %d: a replayable frame was lost", p.Cycle, next-1)
		}
		next++
	}
	if next != frames {
		t.Errorf("the stream carried %d of %d progress frames", next, frames)
	}
	if !strings.HasSuffix(w.out.String(), "event: done\ndata: "+string(marshalResult(res)[:len(marshalResult(res))-1])+"\n\n") {
		t.Errorf("the stream does not end with the done frame:\n%s", w.out.String()[max(0, w.out.Len()-300):])
	}
}

// TestStallPastHistoryBound stalls a client while the job publishes
// more progress frames than the history holds, then done: the frames the
// history overwrote before the client read again are lost and counted as
// dropped, and what arrives is in publish order, ends with the last
// historyBound replayable frames without a gap, and closes with done.
func TestStallPastHistoryBound(t *testing.T) {
	scn := metrofuzz.Generate(2)
	j := newJob("job", metrofuzz.EncodeSpec(scn), scn, EngineReference, false, jobObs{})
	const frames = historyBound + 300
	w := &gatedWriter{gate: make(chan struct{}), hdr: http.Header{}}
	served := make(chan struct{})
	go func() {
		serveEvents(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/job/events", nil), j)
		close(served)
	}()
	for !j.hub.watched() {
		runtime.Gosched()
	}
	for i := range frames {
		j.publishProgress(uint64(i), i, 0, 0)
	}
	res := &Result{ID: "job", Status: StatusPassed}
	j.complete(res, marshalResult(res))
	close(w.gate)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	select {
	case <-served:
	case <-ctx.Done():
		t.Fatal("the stalled stream never ended")
	}

	var cycles []int
	for _, line := range strings.Split(w.out.String(), "\n") {
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || !strings.HasPrefix(data, `{"cycle":`) {
			continue
		}
		var p progressPayload
		if err := json.Unmarshal([]byte(data), &p); err != nil {
			t.Fatal(err)
		}
		if n := len(cycles); n > 0 && int(p.Cycle) <= cycles[n-1] {
			t.Fatalf("progress frame for cycle %d after cycle %d", p.Cycle, cycles[n-1])
		}
		cycles = append(cycles, int(p.Cycle))
	}
	// The history ends in done, so it holds the last historyBound-1
	// progress frames.
	tail := historyBound - 1
	if len(cycles) < tail {
		t.Fatalf("the stream carried %d progress frames, fewer than the %d the history keeps", len(cycles), tail)
	}
	for k, c := range cycles[len(cycles)-tail:] {
		if want := frames - tail + k; c != want {
			t.Fatalf("progress frame %d of the last %d is cycle %d, want %d", k, tail, c, want)
		}
	}
	if !strings.HasSuffix(w.out.String(), "event: done\ndata: "+string(marshalResult(res)[:len(marshalResult(res))-1])+"\n\n") {
		t.Errorf("the stream does not end with the done frame:\n%s", w.out.String()[max(0, w.out.Len()-300):])
	}
	j.hub.mu.Lock()
	dropped := j.hub.dropped
	j.hub.mu.Unlock()
	if want := uint64(frames - len(cycles)); dropped != want {
		t.Errorf("dropped %d, want the %d progress frames of %d not delivered", dropped, want, frames)
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
