package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metro/internal/metrofuzz"
	"metro/internal/serve"
)

// Serve workload sizes (see README.md, "Sizing").
const (
	serveClients = 2 // closed loop: metroserve callers each wait for their reply
	serveWorkers = 2
	serveSpecs   = 100 // distinct specs per list
	// coldCacheBytes is below the result set of one list, so serve_cold
	// pays cache writes and evictions.
	coldCacheBytes = 32 << 10
	warmupJobs     = 20    // serve_cold set-up: jobs through a throwaway server
	warmRequests   = 10000 // serve_warm: requests per repetition
	// latencySamples bounds the pooled latency log of a timed region.
	latencySamples = 1 << 17
)

// specList is a workload's generated input: distinct fault-stripped
// scenarios as canonical mf1 lines with their content addresses.
type specList struct {
	scenarios []metrofuzz.Scenario
	lines     []string
	keys      []string
	digest    string // SHA-256 over the lines, pinned by the golden at seed 1
}

// shapeSeed fixes the scenario shapes of the serve workloads.
const shapeSeed = 1_000_003

// genSpecs derives n distinct scenarios from the seed. Scenario i takes
// its shape (topology, router and endpoint knobs, traffic schedule,
// message budget) from metrofuzz.Generate(shapeSeed+i), the same for
// every seed, and its net seed and traffic seed from the seed. Drawing
// the shapes from the seed as well made a 100-spec list's mean job cost
// swing by 15% from seed to seed (job cost is heavy-tailed in topology
// size and message count), which would drown any change the benchmark
// is meant to resolve; re-drawing only the randomness keeps every seed
// a different input and the work comparable.
//
// The fault plan is stripped and everything else kept: ~7% of raw
// generated scenarios drain a fault through full retry exhaustion and
// take seconds against a 15 ms median, which would own both throughput
// and the tail.
//
// Every candidate is run once, directly, and kept only if it passes its
// oracles: about 1 in 1000 fault-free scenarios exhausts a small retry
// budget under congestion and fails the delivery oracle, by design of
// the generator, and a workload must hold no operation that fails. The
// engine is deterministic, so a spec that passes here passes on the
// server.
func genSpecs(seed int64, n int) specList {
	var l specList
	h := sha256.New()
	seen := map[string]bool{}
	for i := int64(0); len(l.lines) < n; i++ {
		s := metrofuzz.Generate(shapeSeed + i)
		s.Faults = nil
		rng := rand.New(rand.NewSource(seed*1_000_003 + i))
		s.NetSeed = 1 + rng.Int63n(1<<31)
		s.TrafficSeed = 1 + rng.Int63n(1<<31)
		line := metrofuzz.EncodeSpec(s)
		if seen[line] {
			continue
		}
		seen[line] = true
		if metrofuzz.Run(s, metrofuzz.Hooks{}).Failed() {
			continue
		}
		l.scenarios = append(l.scenarios, s)
		l.lines = append(l.lines, line)
		l.keys = append(l.keys, serve.Key(line, serve.EngineReference, false))
		io.WriteString(h, line)
		h.Write([]byte{'\n'})
	}
	l.digest = hex.EncodeToString(h.Sum(nil))
	return l
}

// permuteSpec returns the line with its fields after the mf1 magic in a
// seeded random order: the same scenario, a different byte string.
func permuteSpec(line string, rng *rand.Rand) string {
	parts := strings.Split(line, ";")
	fields := parts[1:]
	rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	return strings.Join(parts, ";")
}

// sseFrame is one Server-Sent Events frame.
type sseFrame struct {
	event string
	data  []byte
}

// readSSEFrame reads one `event:`/`data:` frame terminated by a blank
// line. It returns io.EOF when the stream ends between frames.
func readSSEFrame(r *bufio.Reader) (sseFrame, error) {
	var f sseFrame
	got := false
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			if err == io.EOF && !got && len(line) == 0 {
				return f, io.EOF
			}
			if err == io.EOF {
				return f, io.ErrUnexpectedEOF
			}
			return f, err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if got {
				return f, nil
			}
		case bytes.HasPrefix(line, []byte("event:")):
			f.event = string(bytes.TrimSpace(line[len("event:"):]))
			got = true
		case bytes.HasPrefix(line, []byte("data:")):
			f.data = append(f.data, bytes.TrimPrefix(line[len("data:"):], []byte(" "))...)
			got = true
		}
	}
}

// readSSEUntilDone consumes a job's event stream up to its terminal
// frame and returns that frame's data and the number of frames read.
func readSSEUntilDone(r io.Reader) (done []byte, frames int, err error) {
	br := bufio.NewReader(r)
	for {
		f, err := readSSEFrame(br)
		if err != nil {
			return nil, frames, fmt.Errorf("event stream ended without a done frame: %w", err)
		}
		frames++
		if f.event == "done" {
			return f.data, frames, nil
		}
	}
}

// testServer is an in-process metroserve behind real loopback HTTP.
type testServer struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startServer(cacheBytes int64) *testServer {
	srv := serve.New(serve.Config{Workers: serveWorkers, QueueDepth: 64, CacheBytes: cacheBytes})
	return &testServer{srv: srv, ts: httptest.NewServer(srv)}
}

// stop drains the worker fleet and closes the listener; it returns how
// long the drain took.
func (s *testServer) stop() (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t0 := time.Now()
	err := s.srv.Drain(ctx)
	return time.Since(t0), err
}

func (s *testServer) close() {
	s.ts.Client().CloseIdleConnections()
	s.ts.Close()
}

// reply is one completed request as the client saw it.
type reply struct {
	code  int
	cache string // X-Cache
	job   string // X-Job
	body  []byte
}

func (s *testServer) do(method, path, body string) (reply, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, s.ts.URL+path, rd)
	if err != nil {
		return reply{}, err
	}
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{code: resp.StatusCode, cache: resp.Header.Get("X-Cache"), job: resp.Header.Get("X-Job"), body: data}, nil
}

// submitWait is `POST /v1/jobs?wait=1`: the reply carries the result.
func (s *testServer) submitWait(line string) (reply, error) {
	return s.do("POST", "/v1/jobs?wait=1", line)
}

// submitStream is `POST /v1/jobs` (202) followed by the job's event
// stream read to its done frame; the returned body is the done frame's
// data plus the newline the stored body carries.
func (s *testServer) submitStream(line string, buf *spanBuf, parent int32, op int64) (reply, int, error) {
	post := buf.begin("http.post", parent, op)
	r, err := s.do("POST", "/v1/jobs", line)
	buf.finish(post)
	if err != nil {
		return r, 0, err
	}
	if r.code != http.StatusAccepted && r.code != http.StatusOK {
		return r, 0, nil
	}
	sse := buf.begin("sse.stream", parent, op)
	defer buf.finish(sse)
	resp, err := s.ts.Client().Get(s.ts.URL + "/v1/jobs/" + r.job + "/events")
	if err != nil {
		return r, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.code = resp.StatusCode
		return r, 0, nil
	}
	done, frames, err := readSSEUntilDone(resp.Body)
	if err != nil {
		return r, frames, err
	}
	// The server ends the stream after the done frame; reading to EOF
	// lets the connection return to the keep-alive pool.
	io.Copy(io.Discard, resp.Body)
	r.code = http.StatusOK
	r.body = append(done, '\n')
	return r, frames, nil
}

// parseResult extracts the status and simulated cycle count of a
// result body; a malformed body has the empty status.
func parseResult(body []byte) (status string, cycles uint64) {
	var res struct {
		Status string `json:"status"`
		Cycles uint64 `json:"cycles"`
	}
	if json.Unmarshal(body, &res) != nil {
		return "", 0
	}
	return res.Status, res.Cycles
}

// statsSnapshot is the part of /v1/stats the checks and the exact-count
// metrics read.
type statsSnapshot struct {
	Queued   int `json:"queued"`
	Counters struct {
		CacheServed  uint64 `json:"cacheServed"`
		Coalesced    uint64 `json:"coalesced"`
		Enqueued     uint64 `json:"enqueued"`
		Executed     uint64 `json:"executed"`
		RejectedFull uint64 `json:"rejectedFull"`
	} `json:"counters"`
	Cache struct {
		Bytes     int64  `json:"bytes"`
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"cache"`
}

func (s *testServer) stats() (statsSnapshot, error) {
	var st statsSnapshot
	r, err := s.do("GET", "/v1/stats", "")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(r.body, &st); err != nil {
		return st, fmt.Errorf("/v1/stats: %w", err)
	}
	return st, nil
}

// report writes the exact-count catalogue from a stats snapshot.
func (st statsSnapshot) report(o *outcome) {
	o.values["serve.enqueued"] = float64(st.Counters.Enqueued)
	o.values["serve.executed"] = float64(st.Counters.Executed)
	o.values["serve.coalesced"] = float64(st.Counters.Coalesced)
	o.values["serve.rejected_full"] = float64(st.Counters.RejectedFull)
	o.values["serve.cache_hits"] = float64(st.Cache.Hits)
	o.values["serve.cache_misses"] = float64(st.Cache.Misses)
	o.values["serve.cache_evictions"] = float64(st.Cache.Evictions)
	o.values["serve.cache_bytes"] = float64(st.Cache.Bytes)
}

// scrapeMetrics reads /v1/metrics `times` times and returns the last
// exposition parsed into series -> value, plus each scrape's duration.
func (s *testServer) scrapeMetrics(times int) (map[string]float64, []float64, error) {
	var ms []float64
	var last []byte
	for i := 0; i < times; i++ {
		t0 := time.Now()
		r, err := s.do("GET", "/v1/metrics", "")
		if err != nil {
			return nil, nil, err
		}
		if r.code != http.StatusOK {
			return nil, nil, fmt.Errorf("/v1/metrics: status %d", r.code)
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
		last = r.body
	}
	return parseExposition(last), ms, nil
}

// parseExposition parses Prometheus text format into `name{labels}` ->
// value, skipping comments.
func parseExposition(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// histMeanMs is a scraped histogram's sum/count in milliseconds.
func histMeanMs(series map[string]float64, name, labels string) float64 {
	count := series[name+"_count"+labels]
	if count == 0 {
		return 0
	}
	return series[name+"_sum"+labels] / count * 1e3
}

// clientLog is one client goroutine's private record of a repetition.
type clientLog struct {
	failed   int64
	problems []string
	buf      *spanBuf
}

func (c *clientLog) failf(format string, args ...any) {
	c.failed++
	if len(c.problems) < 5 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// closedLoop drives requests 0..total-1 from serveClients goroutines,
// each taking the next index only after its previous request completed.
// It returns the clients' logs and the wall time of the whole batch.
func closedLoop(total int, bufs []*spanBuf, request func(c *clientLog, i int)) ([]*clientLog, time.Duration) {
	logs := make([]*clientLog, serveClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := range logs {
		logs[k] = &clientLog{}
		if bufs != nil {
			logs[k].buf = bufs[k]
		}
		wg.Add(1)
		go func(c *clientLog) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				request(c, i)
			}
		}(logs[k])
	}
	wg.Wait()
	return logs, time.Since(start)
}

// merge folds the clients' logs into the outcome.
func merge(o *outcome, logs []*clientLog, total int) {
	o.attempted += int64(total)
	for _, c := range logs {
		o.failed += c.failed
		for _, p := range c.problems {
			o.problemf("%s", p)
		}
	}
}
