package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"metro/internal/metrofuzz"
	"metro/internal/telemetry"
)

// TestGaugeFrameMatchesJSON holds the hand-rolled gauge frame to the
// bytes json.Marshal(gaugePayload{...}) renders: every gauge kind,
// whole-network (-1) and per-stage sources, negative and extreme values.
func TestGaugeFrameMatchesJSON(t *testing.T) {
	kinds := []telemetry.Kind{
		telemetry.EvGaugeConns, telemetry.EvGaugeBusyPorts,
		telemetry.EvGaugeQueueDepth, telemetry.EvGaugeInFlight,
	}
	cycles := []uint64{0, 1, 4096, math.MaxUint32 + 1, math.MaxUint64}
	stages := []int16{-1, 0, 3, math.MaxInt16, math.MinInt16}
	values := []int32{0, 1, -1, 12345, math.MaxInt32, math.MinInt32}
	longest := 0
	for _, k := range kinds {
		if k.Family() != "gauge" {
			t.Fatalf("%v is not in the gauge family", k)
		}
		for _, c := range cycles {
			for _, s := range stages {
				for _, v := range values {
					e := telemetry.Event{Cycle: c, Kind: k, Src: telemetry.NetworkSource(int(s)), A: v, B: 7}
					want, err := json.Marshal(gaugePayload{Cycle: c, Kind: k.String(), Stage: int(s), Value: v})
					if err != nil {
						t.Fatal(err)
					}
					got := appendGaugeFrame(nil, &e)
					if string(got) != string(want) {
						t.Fatalf("frame for %+v:\n got %s\nwant %s", e, got, want)
					}
					if len(got) > longest {
						longest = len(got)
					}
				}
			}
		}
	}
	if longest > gaugeFrameCap {
		t.Errorf("longest frame is %d bytes, over gaugeFrameCap = %d: it would reallocate", longest, gaugeFrameCap)
	}
	// The table above must cover the whole family: a new gauge kind has to
	// be added here (and its mnemonic checked for characters JSON escapes).
	for k := telemetry.Kind(0); k < 64; k++ {
		if k.Family() != "gauge" {
			continue
		}
		covered := false
		for _, have := range kinds {
			covered = covered || have == k
		}
		if !covered {
			t.Errorf("gauge kind %v is not in the table", k)
		}
	}
}

// simSeries scrapes /v1/metrics and returns the deterministic sim_*
// series: the telemetry bridge's counters and the last-job gauges (not
// the wall-clock throughput gauges).
func simSeries(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(string(readBody(t, resp)), "\n") {
		if strings.HasPrefix(line, "sim_messages_") || strings.HasPrefix(line, "sim_job_") {
			keep = append(keep, line)
		}
	}
	if len(keep) == 0 {
		t.Fatal("no sim_* series in the scrape")
	}
	return strings.Join(keep, "\n")
}

// TestRinglessRecorderSameResult: the same spec run with trace=1 (a
// ringed recorder) and without (a stream-only one) yields the same result
// apart from the id and the trace itself, and drives the sim_* bridge to
// the same values; the traced body still carries exactly the stream a
// ringed recorder captures on a direct run.
func TestRinglessRecorderSameResult(t *testing.T) {
	scn := metrofuzz.Generate(2)
	spec := metrofuzz.EncodeSpec(scn)

	var results [2]Result
	var series [2]string
	for i, query := range []string{"?wait=1&trace=1", "?wait=1"} {
		s, hs := newTestServer(t, Config{Workers: 1})
		if got, want := s.jobRecorder(i == 0).Capacity(), []int{1 << 14, 0}[i]; got != want {
			t.Fatalf("%s: job recorder capacity %d, want %d", query, got, want)
		}
		resp := submit(t, hs.URL, spec, query)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", query, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &results[i]); err != nil {
			t.Fatal(err)
		}
		series[i] = simSeries(t, hs.URL)
	}
	traced, plain := results[0], results[1]
	if traced.Trace == "" || plain.Trace != "" {
		t.Fatalf("trace presence wrong: traced %d bytes, plain %d bytes", len(traced.Trace), len(plain.Trace))
	}
	if series[0] != series[1] {
		t.Errorf("sim_* series differ between the ringed and the stream-only job:\nringed:\n%s\nstream-only:\n%s", series[0], series[1])
	}
	if strings.Contains(series[0], "sim_messages_delivered_total 0") {
		t.Errorf("the bridge tallied no deliveries:\n%s", series[0])
	}

	rec := telemetry.New(telemetry.Options{Capacity: 1 << 14})
	metrofuzz.Run(scn, metrofuzz.Hooks{Recorder: rec})
	var direct strings.Builder
	if err := telemetry.Encode(&direct, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if traced.Trace != direct.String() {
		t.Errorf("served trace (%d bytes) differs from a direct ringed run's (%d bytes)", len(traced.Trace), direct.Len())
	}

	traced.ID, traced.Trace = plain.ID, ""
	a, _ := json.Marshal(traced)
	b, _ := json.Marshal(plain)
	if string(a) != string(b) {
		t.Errorf("results differ beyond id and trace:\nringed      %s\nstream-only %s", a, b)
	}
}

// TestGaugeFramesFollowSubscription: gauge frames exist exactly while
// someone is attached. A run nobody watches publishes none (the sink does
// not even encode them); a subscriber attaching mid-run receives every
// gauge sample from its attach cycle on.
func TestGaugeFramesFollowSubscription(t *testing.T) {
	scn := metrofuzz.Generate(2)
	newRun := func(progress func(j *job, cycle uint64)) (*job, *metrofuzz.Report) {
		j := newJob("job", metrofuzz.EncodeSpec(scn), scn, EngineReference, false, jobObs{})
		rec := telemetry.NewStream()
		rec.SetSink(j.gaugeSink(1))
		rep := metrofuzz.Run(scn, metrofuzz.Hooks{
			Recorder:       rec,
			ProgressPeriod: 8,
			Progress: func(cycle uint64, offered, completed, delivered int) bool {
				progress(j, cycle)
				return true
			},
		})
		if rep.Failed() {
			t.Fatalf("scenario failed its oracles: %v", rep.Failures[0])
		}
		return j, rep
	}

	// Attach at cycle 16 of the primary leg (Progress fires before the
	// cycle steps, so cycle 16's samples are the first ones due).
	const attach = 16
	var live chan streamEvent
	_, rep := newRun(func(j *job, cycle uint64) {
		if cycle == attach && live == nil {
			replay, ch, _ := j.hub.subscribe()
			if len(replay) != 0 {
				t.Errorf("replay holds %d frames; gauge frames must never be kept", len(replay))
			}
			live = ch
		}
	})
	if rep.Cycles <= attach+8 {
		t.Fatalf("scenario ran %d cycles, too short to attach at %d", rep.Cycles, attach)
	}
	if live == nil {
		t.Fatal("never attached")
	}
	// The channel holds the first subBuffer frames; later ones were dropped
	// on the full buffer, which is the slow-subscriber contract.
	next := uint64(attach)
	perCycle, frames := 0, 0
	for len(live) > 0 {
		ev := <-live
		if ev.name != "gauge" {
			t.Fatalf("frame %q on a hub that only saw gauges", ev.name)
		}
		var g gaugePayload
		if err := json.Unmarshal(ev.data, &g); err != nil {
			t.Fatalf("bad gauge frame %q: %v", ev.data, err)
		}
		if frames == 0 && g.Cycle != attach {
			t.Fatalf("first frame is from cycle %d, want the attach cycle %d", g.Cycle, attach)
		}
		if g.Cycle != next {
			if g.Cycle != next+1 || perCycle == 0 {
				t.Fatalf("frame from cycle %d after cycle %d: samples were skipped", g.Cycle, next)
			}
			next, perCycle = g.Cycle, 0
		}
		perCycle++
		frames++
	}
	if frames != subBuffer {
		t.Errorf("%d frames buffered, want a full buffer of %d from a %d-cycle run", frames, subBuffer, rep.Cycles)
	}

	// Nobody attached: nothing is published, and the sink allocates
	// nothing for the samples it skips.
	j, _ := newRun(func(*job, uint64) {})
	replay, ch, cancel := j.hub.subscribe()
	if len(replay) != 0 || len(ch) != 0 {
		t.Errorf("unwatched run left %d replayable and %d live frames", len(replay), len(ch))
	}
	cancel()
	sink := j.gaugeSink(1)
	batch := []telemetry.Event{
		{Cycle: 1, Kind: telemetry.EvGaugeConns, Src: telemetry.NetworkSource(0), A: 3},
		{Cycle: 1, Kind: telemetry.EvGaugeInFlight, Src: telemetry.NetworkSource(-1), A: 5},
	}
	if !raceEnabled {
		if a := testing.AllocsPerRun(100, func() { sink(batch) }); a != 0 {
			t.Errorf("gauge sink with no subscriber: %v allocs per batch, want 0", a)
		}
	}
	_, ch, cancel = j.hub.subscribe()
	defer cancel()
	sink(batch)
	if len(ch) != len(batch) {
		t.Errorf("%d frames after attaching, want %d", len(ch), len(batch))
	}
}

// TestColdJobAllocBudget pins what one cold job may allocate: a
// fault-free generated scenario submitted with ?wait=1 to a fresh
// in-process server, in bytes and in objects. The job needs 166.9-171.1 KB
// in 1,443-1,463 objects (two Builds, the cycle loop's warm-up growth, the
// oracle battery, the marshalled result; runs fall in one of two modes); it
// needed 168.1-174.6 KB in 1,461-1,481 while every router's LFSR was a
// heap object of its own and every cascade shared a buffered stream,
// 183.7-187.9 KB in 1,673-1,693 while endpoints, senders and
// receivers grew their own queue, build, parse and reply buffers and netsim
// a callback buffer per endpoint, and 185-189 KB in 1,733-1,752 while each
// endpoint kept its own message records. Each ceiling is the upper mode
// plus 10%, so a recorder ring paid for
// unwatched (655,360 bytes), a result stored twice or a Build that formats
// its names through fmt again fails here before it shows up in the
// serve_cold benchmark.
func TestColdJobAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const ceiling, objects = 188_200, 1_610 // per job
	scn := metrofuzz.Generate(2)
	scn.Faults = nil
	spec := metrofuzz.EncodeSpec(scn)
	best, fewest := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for run := 0; run < 3; run++ {
		// A fresh server per run: every submission is a miss.
		s, _ := newTestServer(t, Config{Workers: 1})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", strings.NewReader(spec)))
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "miss" {
			t.Fatalf("run %d: status %d, X-Cache %q: %s", run, w.Code, w.Header().Get("X-Cache"), w.Body)
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	t.Logf("one cold job allocated %d bytes in %d objects (ceilings %d, %d)", best, fewest, ceiling, objects)
	if best > ceiling {
		t.Errorf("one cold job allocated %d bytes, over the %d-byte budget: is something per-job (a recorder ring is 655,360 bytes) being paid for unwatched?", best, ceiling)
	}
	if fewest > objects {
		t.Errorf("one cold job allocated %d objects, over the budget of %d: is a result stored twice, or a name built through fmt?", fewest, objects)
	}
}
