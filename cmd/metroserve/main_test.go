package main_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metro/internal/clitest"
	"metro/internal/metrofuzz"
)

// scrapeMetrics fetches /v1/metrics and returns every sample as
// "name" or `name{labels}` → value.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable metric line %q: %v", line, err)
		}
		m[line[:i]] = v
	}
	return m
}

// result mirrors serve.Result's wire shape (decoded, not imported, so
// this test exercises the JSON contract a real client sees).
type result struct {
	ID      string `json:"id"`
	Spec    string `json:"spec"`
	Status  string `json:"status"`
	Cycles  uint64 `json:"cycles"`
	Summary string `json:"summary"`
}

func postSpec(t *testing.T, base, spec, query string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs"+query, "text/plain", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestMetroserveEndToEnd is the tentpole's proof: a real metroserve
// subprocess on an ephemeral port, driven over HTTP. It asserts the
// cache miss/hit cycle with byte-identical bodies, SSE progress
// streaming, a summary byte-identical to the metrofuzz CLI's replay of
// the same spec, and a clean SIGTERM drain (the harness cleanup fails
// the test if the daemon exits non-zero).
func TestMetroserveEndToEnd(t *testing.T) {
	srv := clitest.StartServer(t, "-workers", "2", "-progress", "64")
	spec := metrofuzz.EncodeSpec(metrofuzz.Generate(1))

	// First submission: a miss that runs the simulation.
	miss, missBody := postSpec(t, srv.URL, spec, "?wait=1")
	if miss.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d; body: %s", miss.StatusCode, missBody)
	}
	if got := miss.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first run X-Cache %q, want miss", got)
	}
	var res result
	if err := json.Unmarshal(missBody, &res); err != nil {
		t.Fatalf("result not JSON: %v; body: %s", err, missBody)
	}
	if res.Status != "passed" {
		t.Fatalf("status %q, want passed; body: %s", res.Status, missBody)
	}
	if res.Spec != spec {
		t.Fatalf("canonical spec drifted: %q vs %q", res.Spec, spec)
	}

	// Resubmission: byte-identical from the cache.
	hit, hitBody := postSpec(t, srv.URL, spec, "?wait=1")
	if got := hit.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("resubmission X-Cache %q, want hit", got)
	}
	if !bytes.Equal(missBody, hitBody) {
		t.Fatalf("cache hit not byte-identical:\nmiss: %s\nhit:  %s", missBody, hitBody)
	}

	// The stored summary is byte-identical to the CLI replaying the same
	// spec — the service and `metrofuzz -replay` are one implementation.
	cli := clitest.Run(t, "metrofuzz", "-replay", spec, "-shrink=false")
	if res.Summary != string(cli) {
		t.Fatalf("server summary diverged from CLI replay:\nserver: %q\ncli:    %q", res.Summary, cli)
	}

	// The SSE stream replays progress and terminates with the result.
	events, err := http.Get(srv.URL + "/v1/jobs/" + res.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	progress, done := 0, false
	sc := bufio.NewScanner(events.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			event = v
		} else if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			switch event {
			case "progress":
				progress++
			case "done":
				done = true
				if !bytes.Equal(append([]byte(data), '\n'), missBody) {
					t.Fatalf("done event differs from served result:\n%s\n%s", data, missBody)
				}
			}
		}
		if done {
			break
		}
	}
	if progress == 0 || !done {
		t.Fatalf("event stream: %d progress frames, done=%v", progress, done)
	}

	// Stats confirm the hit was served without execution.
	statsResp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	statsBody, _ := io.ReadAll(statsResp.Body)
	statsResp.Body.Close()
	var stats struct {
		Counters struct {
			Executed    uint64 `json:"executed"`
			CacheServed uint64 `json:"cacheServed"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatalf("stats: %v; body: %s", err, statsBody)
	}
	if stats.Counters.Executed != 1 || stats.Counters.CacheServed != 1 {
		t.Fatalf("counters %+v, want executed=1 cacheServed=1", stats.Counters)
	}
}

// TestMetroserveErrorStatuses pins the subprocess's error contract: the
// strict decoder's rejections surface as 400s over the wire.
func TestMetroserveErrorStatuses(t *testing.T) {
	srv := clitest.StartServer(t, "-workers", "1")
	for _, tc := range []struct {
		name, spec string
		status     int
	}{
		{"trailing garbage", "mf1;topo=fig1;w=8 junk", http.StatusBadRequest},
		{"unknown version", "mf2;topo=fig1", http.StatusBadRequest},
		{"empty", "", http.StatusBadRequest},
	} {
		resp, body := postSpec(t, srv.URL, tc.spec, "")
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d; body: %s", tc.name, resp.StatusCode, tc.status, body)
		}
	}
}

// TestMetroserveObservability drives the operational surface of a real
// subprocess end to end: JSON structured logs on stderr, the
// /v1/metrics exposition reflecting an executed job, the
// liveness/readiness split, and pprof answering on the opt-in debug
// listener (and only there).
func TestMetroserveObservability(t *testing.T) {
	srv := clitest.StartServer(t, "-workers", "1", "-log-format", "json", "-debug-addr", "127.0.0.1:0")
	spec := metrofuzz.EncodeSpec(metrofuzz.Generate(7))
	resp, body := postSpec(t, srv.URL, spec, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d; body: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Job")

	mm := scrapeMetrics(t, srv.URL)
	if mm["serve_jobs_executed_total"] != 1 {
		t.Fatalf("serve_jobs_executed_total = %v, want 1", mm["serve_jobs_executed_total"])
	}
	if mm[`serve_admission_total{outcome="enqueued"}`] != 1 {
		t.Fatalf("enqueued admission = %v, want 1", mm[`serve_admission_total{outcome="enqueued"}`])
	}

	for _, probe := range []struct {
		path string
		want int
	}{{"/v1/healthz", http.StatusOK}, {"/v1/readyz", http.StatusOK}} {
		presp, err := http.Get(srv.URL + probe.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, presp.Body)
		presp.Body.Close()
		if presp.StatusCode != probe.want {
			t.Fatalf("%s: status %d, want %d", probe.path, presp.StatusCode, probe.want)
		}
	}

	// pprof is absent from the serving port...
	notHere, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, notHere.Body)
	notHere.Body.Close()
	if notHere.StatusCode == http.StatusOK {
		t.Fatal("pprof answered on the serving port; it must live on -debug-addr only")
	}
	// ...and present on the debug listener, whose address the daemon
	// reports right after the main listen line.
	debugAddr := debugAddress(t, srv)
	dresp, err := http.Get("http://" + debugAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	cmdline, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || !strings.Contains(string(cmdline), "metroserve") {
		t.Fatalf("debug pprof: status %d, body %q", dresp.StatusCode, cmdline)
	}

	// Structured logs: the stderr stream carries a JSON job record for
	// this run's terminal state. The line lands just after ?wait=1
	// returns, so poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		found := false
		for _, line := range strings.Split(srv.Output(), "\n") {
			if !strings.HasPrefix(line, "{") {
				continue
			}
			var rec struct {
				Msg   string `json:"msg"`
				Job   string `json:"job"`
				State string `json:"state"`
			}
			if json.Unmarshal([]byte(line), &rec) != nil {
				continue
			}
			if rec.Msg == "job" && rec.Job == id && rec.State == "passed" {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no JSON job log for %s; output:\n%s", id, srv.Output())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// debugAddress waits for the daemon's `metroserve debug listening on
// <addr>` line, which follows the main listen line.
func debugAddress(t *testing.T, srv *clitest.Server) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, line := range strings.Split(srv.Output(), "\n") {
			if a, ok := strings.CutPrefix(line, "metroserve debug listening on "); ok {
				return a
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported the debug address; output:\n%s", srv.Output())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMetroserveStalledHeaderClosed: a client that never finishes its
// request headers is disconnected, on the serving port and on the debug
// port, while a wait=1 job and an SSE stream on the same server complete
// around it.
func TestMetroserveStalledHeaderClosed(t *testing.T) {
	srv := clitest.StartServer(t, "-workers", "1", "-progress", "64", "-debug-addr", "127.0.0.1:0")
	var stalled []net.Conn
	for _, addr := range []string{strings.TrimPrefix(srv.URL, "http://"), debugAddress(t, srv)} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := io.WriteString(c, "GET /v1/healthz HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
			t.Fatal(err)
		}
		stalled = append(stalled, c)
	}

	resp, body := postSpec(t, srv.URL, metrofuzz.EncodeSpec(metrofuzz.Generate(1)), "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait=1 job beside a stalled connection: status %d; body: %s", resp.StatusCode, body)
	}
	events, err := http.Get(srv.URL + "/v1/jobs/" + resp.Header.Get("X-Job") + "/events")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(events.Body)
	events.Body.Close()
	if err != nil || !bytes.Contains(stream, []byte("event: done\n")) {
		t.Fatalf("SSE stream beside a stalled connection: err %v, body %q", err, stream)
	}

	for _, c := range stalled {
		c.SetReadDeadline(time.Now().Add(15 * time.Second))
		if n, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("stalled connection to %s: read %d bytes, err %v; want the server to close it", c.RemoteAddr(), n, err)
		}
	}
}

// TestMetroserveIdleConnectionClosed: a keep-alive connection left idle
// after its request is closed by the server, on the serving port and on
// the debug port, while a wait=1 job and an SSE stream, in flight over the
// same idle period behind a queue of long jobs, complete.
func TestMetroserveIdleConnectionClosed(t *testing.T) {
	srv := clitest.StartServer(t, "-workers", "1", "-progress", "64", "-debug-addr", "127.0.0.1:0")
	var idle []net.Conn
	for _, target := range []string{srv.URL + "/v1/healthz", "http://" + debugAddress(t, srv) + "/debug/pprof/cmdline"} {
		req, err := http.NewRequest(http.MethodGet, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := net.Dial("tcp", req.URL.Host)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := req.Write(c); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(c), req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Close {
			t.Fatalf("%s: status %d, close %v; want a kept-alive 200", target, resp.StatusCode, resp.Close)
		}
		idle = append(idle, c)
	}
	idleSince := time.Now()

	// Long jobs ahead of the watched ones keep the single worker busy past
	// the idle timeout (about 0.7 s each on a 2-vCPU box).
	for i := 0; i < 10; i++ {
		spec := fmt.Sprintf("mf1;topo=fig3;w=8;hw=0;dp=4;vtd=4;cas=2;fast=1;ff=0;wk=8;ns=%d;mas=0;retry=1000;lt=2000;tr=stall;ts=63205845;msgs=2000;rate=0;out=1;think=1000;pb=64;ic=20000", 1000+i)
		if resp, body := postSpec(t, srv.URL, spec, ""); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queueing a long job: status %d; body: %s", resp.StatusCode, body)
		}
	}
	resp, body := postSpec(t, srv.URL, metrofuzz.EncodeSpec(metrofuzz.Generate(1)), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queueing the streamed job: status %d; body: %s", resp.StatusCode, body)
	}
	streamed := resp.Header.Get("X-Job")
	var wg sync.WaitGroup
	var streamErr, waitErr error
	var streamDone, waitDone time.Time
	wg.Add(2)
	go func() {
		defer wg.Done()
		events, err := http.Get(srv.URL + "/v1/jobs/" + streamed + "/events")
		if err == nil {
			var stream []byte
			stream, err = io.ReadAll(events.Body)
			events.Body.Close()
			if err == nil && !bytes.Contains(stream, []byte("event: done\n")) {
				err = fmt.Errorf("stream ended without a done frame: %q", stream)
			}
		}
		streamErr, streamDone = err, time.Now()
	}()
	go func() {
		defer wg.Done()
		resp, err := http.Post(srv.URL+"/v1/jobs?wait=1", "text/plain", strings.NewReader(metrofuzz.EncodeSpec(metrofuzz.Generate(7))))
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d; body: %s", resp.StatusCode, body)
			}
		}
		waitErr, waitDone = err, time.Now()
	}()

	for _, c := range idle {
		c.SetReadDeadline(idleSince.Add(15 * time.Second))
		if n, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("idle connection to %s: read %d bytes, err %v; want the server to close it", c.RemoteAddr(), n, err)
		}
	}
	closed := time.Since(idleSince)
	wg.Wait()
	if streamErr != nil || waitErr != nil {
		t.Fatalf("requests beside the idle connections: SSE stream %v, wait=1 job %v", streamErr, waitErr)
	}
	t.Logf("idle connections closed after %v; the SSE stream ended %v and the wait=1 job %v after they went idle",
		closed.Round(time.Millisecond), streamDone.Sub(idleSince).Round(time.Millisecond), waitDone.Sub(idleSince).Round(time.Millisecond))
}

// TestMetroserveStalledBodyCutOff: a submission whose headers arrive but
// whose body stalls is answered 400 and disconnected once the body-read
// deadline passes, while a wait=1 job and an SSE stream on other
// connections, held behind a queue of long jobs past that deadline,
// complete: the deadline covers the body and nothing after it.
func TestMetroserveStalledBodyCutOff(t *testing.T) {
	srv := clitest.StartServer(t, "-workers", "1", "-progress", "64")
	for i := 0; i < 10; i++ {
		spec := fmt.Sprintf("mf1;topo=fig3;w=8;hw=0;dp=4;vtd=4;cas=2;fast=1;ff=0;wk=8;ns=%d;mas=0;retry=1000;lt=2000;tr=stall;ts=63205845;msgs=2000;rate=0;out=1;think=1000;pb=64;ic=20000", 2000+i)
		if resp, body := postSpec(t, srv.URL, spec, ""); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queueing a long job: status %d; body: %s", resp.StatusCode, body)
		}
	}
	stalled, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "POST /v1/jobs HTTP/1.1\r\nHost: stalled\r\nContent-Type: text/plain\r\nContent-Length: 200\r\n\r\nmf1;topo="); err != nil {
		t.Fatal(err)
	}
	stalledSince := time.Now()

	resp, body := postSpec(t, srv.URL, metrofuzz.EncodeSpec(metrofuzz.Generate(1)), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queueing the streamed job: status %d; body: %s", resp.StatusCode, body)
	}
	streamed := resp.Header.Get("X-Job")
	var wg sync.WaitGroup
	var streamErr, waitErr error
	var waitDone time.Time
	wg.Add(2)
	go func() {
		defer wg.Done()
		events, err := http.Get(srv.URL + "/v1/jobs/" + streamed + "/events")
		if err == nil {
			var stream []byte
			stream, err = io.ReadAll(events.Body)
			events.Body.Close()
			if err == nil && !bytes.Contains(stream, []byte("event: done\n")) {
				err = fmt.Errorf("stream ended without a done frame: %q", stream)
			}
		}
		streamErr = err
	}()
	go func() {
		defer wg.Done()
		resp, err := http.Post(srv.URL+"/v1/jobs?wait=1", "text/plain", strings.NewReader(metrofuzz.EncodeSpec(metrofuzz.Generate(7))))
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d; body: %s", resp.StatusCode, body)
			}
		}
		waitErr, waitDone = err, time.Now()
	}()

	stalled.SetReadDeadline(stalledSince.Add(15 * time.Second))
	reply, err := io.ReadAll(stalled)
	cut := time.Since(stalledSince)
	if err != nil {
		t.Fatalf("stalled body: %v after %v (read %q); want the server to answer and close", err, cut.Round(time.Millisecond), reply)
	}
	if !bytes.HasPrefix(reply, []byte("HTTP/1.1 400 ")) || !bytes.Contains(reply, []byte("reading body")) {
		t.Fatalf("stalled body answered %q, want a 400 naming the body read", reply)
	}
	wg.Wait()
	if streamErr != nil || waitErr != nil {
		t.Fatalf("requests beside the stalled body: SSE stream %v, wait=1 job %v", streamErr, waitErr)
	}
	t.Logf("stalled body cut off after %v; the wait=1 job completed %v after the stall began",
		cut.Round(time.Millisecond), waitDone.Sub(stalledSince).Round(time.Millisecond))
}

// TestMetroserveBadLogFormat pins the flag-validation exit code.
func TestMetroserveBadLogFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	out := clitest.ExitCode(t, 2, "metroserve", "-log-format", "bogus")
	if !strings.Contains(string(out), "unknown -log-format") {
		t.Fatalf("exit-2 message: %q", out)
	}
}

// TestMetroserveRejectsBadFlags checks the fleet and queue sizes before
// the daemon listens: a value below 1 exits 2 with one line naming the
// flag.
func TestMetroserveRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-queue", "-1"},
		{"-queue", "0"},
		{"-workers", "-2"},
		{"-workers", "0"},
	} {
		clitest.Rejects(t, "metroserve", args...)
	}
}

// TestMetroserveSoak hammers a metroserve subprocess with concurrent
// submissions for 60 seconds and then proves zero dropped-but-acked
// jobs: every submission the server acknowledged (200 or 202) must be
// resolvable to a terminal result afterwards. Rejections (429) are
// legal under load; silent loss is not. Gated behind METROSERVE_SOAK=1
// so `go test ./...` stays fast; CI's soak job sets it.
func TestMetroserveSoak(t *testing.T) {
	if os.Getenv("METROSERVE_SOAK") != "1" {
		t.Skip("set METROSERVE_SOAK=1 to run the 60s soak")
	}
	srv := clitest.StartServer(t, "-workers", "4", "-queue", "32", "-job-timeout", "30s")

	const clients = 8
	deadline := time.Now().Add(60 * time.Second)
	var (
		mu       sync.Mutex
		acked    = map[string]bool{}
		accepted atomic.Uint64
		rejected atomic.Uint64
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			client := &http.Client{Timeout: 90 * time.Second}
			for time.Now().Before(deadline) {
				// A small seed pool makes cache hits and coalescing
				// common; occasional fresh seeds keep the workers busy.
				seed := int64(rng.Intn(6))
				if rng.Intn(4) == 0 {
					seed = rng.Int63n(1 << 20)
				}
				spec := metrofuzz.EncodeSpec(metrofuzz.Generate(seed))
				resp, err := client.Post(srv.URL+"/v1/jobs", "text/plain", strings.NewReader(spec))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				id := resp.Header.Get("X-Job")
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusAccepted:
					accepted.Add(1)
					mu.Lock()
					acked[id] = true
					mu.Unlock()
				case http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					t.Errorf("client %d: unexpected status %d", c, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	t.Logf("soak: %d acked, %d rejected, %d distinct jobs", accepted.Load(), rejected.Load(), len(acked))
	if accepted.Load() == 0 {
		t.Fatal("soak made no accepted submissions")
	}

	// Every acked job must resolve: poll until terminal or timeout.
	settle := time.Now().Add(2 * time.Minute)
	for id := range acked {
		for {
			resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatalf("polling %s: %v", id, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound {
				t.Fatalf("acked job %s was dropped (404): %s", id, body)
			}
			var st struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatalf("job %s: bad body %q: %v", id, body, err)
			}
			if st.Status == "passed" || st.Status == "failed" || st.Status == "deadline" {
				break
			}
			if time.Now().After(settle) {
				t.Fatalf("acked job %s never settled (still %q)", id, st.Status)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// The metrics plane must agree that nothing was dropped: every job
	// admitted to the queue was executed, and with all acked jobs
	// settled the queue and workers are empty.
	mm := scrapeMetrics(t, srv.URL)
	enq, exec := mm[`serve_admission_total{outcome="enqueued"}`], mm["serve_jobs_executed_total"]
	if enq != exec || exec == 0 {
		t.Errorf("metrics disagree on drops: enqueued %v, executed %v (want equal and nonzero)", enq, exec)
	}
	if mm["serve_queue_depth"] != 0 || mm["serve_jobs_inflight"] != 0 {
		t.Errorf("metrics after settle: queue_depth %v, inflight %v, want 0/0",
			mm["serve_queue_depth"], mm["serve_jobs_inflight"])
	}
}
