package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"metro/internal/metrofuzz"
)

// documentedStatus is every status the daemon answers with: the handlers'
// (docs/SERVING.md, "HTTP API" and "Admission control and failure modes")
// and the mux's own, a 301 to a cleaned path and a 405 for a route's path
// under another method.
var documentedStatus = map[int]bool{
	http.StatusOK: true, http.StatusAccepted: true, http.StatusMovedPermanently: true,
	http.StatusBadRequest: true, http.StatusNotFound: true, http.StatusMethodNotAllowed: true,
	http.StatusConflict: true, http.StatusRequestEntityTooLarge: true, http.StatusTooManyRequests: true,
	http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true,
}

// Fuzz flags: what the server goes through around the fuzzed request.
const (
	fuzzPrefill = 1 << iota // another spec fills the one-deep queue first
	fuzzDrain               // the server drains between the two sends
)

// FuzzServeHTTP drives an arbitrary method, path, query and body through
// Server.ServeHTTP twice, on a server with no workers, so nothing is ever
// simulated, and a one-deep queue. Every request carries a context that is
// already canceled, so a wait=1 submission answers 504 and an event stream
// ends after its replay instead of following a job that never runs.
//
// It asserts that nothing panics, that every status is a documented one,
// and that /v1/stats balances. The balance is handleSubmit's: a
// submission that gets past reading and decoding its spec (400 and 413
// are refused before admission and count nowhere) ends in exactly one of
// a cache hit (X-Cache: hit), a coalesce onto a job in flight
// (X-Coalesced: true), a refusal because the queue is full (429) or the
// server drains (503), or an enqueue (202, or 504 for wait=1). So
//
//	submitted = cacheServed + coalesced + enqueued + rejectedFull + rejectedDraining
//
// with each term the count of its responses, and with no workers nothing
// leaves the queue: enqueued = queued, and executed = deadline = 0.
func FuzzServeHTTP(f *testing.F) {
	valid := metrofuzz.EncodeSpec(metrofuzz.Generate(1))
	filler := metrofuzz.EncodeSpec(metrofuzz.Generate(2))
	fillerID := Key(filler, EngineReference, false)
	f.Add("POST", "/v1/jobs", "", []byte(valid), uint8(0))
	f.Add("POST", "/v1/jobs", "wait=1&engine=kernel&trace=1", []byte(valid), uint8(0))
	f.Add("POST", "/v1/jobs", "", []byte(valid), uint8(fuzzPrefill))
	f.Add("POST", "/v1/jobs", "", []byte(valid), uint8(fuzzDrain))
	f.Add("POST", "/v1/jobs", "", []byte(valid), uint8(fuzzPrefill|fuzzDrain))
	f.Add("POST", "/v1/jobs", "", []byte("mf1;not a spec"), uint8(0))
	f.Add("POST", "/v1/jobs", "engine=warp", []byte(valid), uint8(0))
	f.Add("POST", "/v1/jobs", "", bytes.Repeat([]byte{'a'}, maxSpecBytes+1), uint8(0))
	f.Add("GET", "/v1/jobs/"+fillerID, "", []byte(nil), uint8(fuzzPrefill))
	f.Add("GET", "/v1/jobs/"+fillerID+"/events", "", []byte(nil), uint8(fuzzPrefill))
	f.Add("GET", "/v1/jobs/"+fillerID+"/trace", "", []byte(nil), uint8(fuzzPrefill))
	f.Add("GET", "/v1/jobs/nope/trace", "", []byte(nil), uint8(0))
	f.Add("GET", "/v1/stats", "", []byte(nil), uint8(0))
	f.Add("GET", "/v1/metrics", "", []byte(nil), uint8(0))
	f.Add("GET", "/v1/healthz", "", []byte(nil), uint8(0))
	f.Add("GET", "/v1/readyz", "", []byte(nil), uint8(fuzzPrefill|fuzzDrain))
	f.Add("DELETE", "/v1/jobs", "", []byte(nil), uint8(0))
	f.Add("GET", "/v1/../v1/stats", "", []byte(nil), uint8(0))
	f.Fuzz(func(t *testing.T, method, path, query string, body []byte, flags uint8) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := http.NewRequestWithContext(ctx, method, "http://metro.test/", nil); err != nil {
			return // net/http refuses the method before any handler runs
		}
		s := New(Config{Workers: 0, QueueDepth: 1})
		defer s.Drain(context.Background())
		var want Counters
		send := func(method, path, query string, body []byte) *httptest.ResponseRecorder {
			r, err := http.NewRequestWithContext(ctx, method, "http://metro.test/", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			// Set the decoded path as net/http's request parser leaves it,
			// whatever bytes it holds.
			r.URL.Path, r.URL.RawQuery = "/"+strings.TrimPrefix(path, "/"), query
			_, route := s.mux.Handler(r)
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			if !documentedStatus[w.Code] {
				t.Fatalf("%s %q?%q answered %d, not a documented status: %s", method, path, query, w.Code, w.Body)
			}
			if route != "POST /v1/jobs" {
				return w
			}
			switch {
			case w.Code == http.StatusBadRequest || w.Code == http.StatusRequestEntityTooLarge:
				return w
			case w.Header().Get("X-Cache") == "hit":
				want.CacheServed++
			case w.Header().Get("X-Coalesced") == "true":
				want.Coalesced++
			case w.Code == http.StatusTooManyRequests:
				want.RejectedFull++
			case w.Code == http.StatusServiceUnavailable:
				want.RejectedDraining++
			case w.Code == http.StatusAccepted || w.Code == http.StatusGatewayTimeout:
				want.Enqueued++
			default:
				t.Fatalf("submission answered %d with no admission outcome: %s", w.Code, w.Body)
			}
			want.Submitted++
			return w
		}
		if flags&fuzzPrefill != 0 {
			if w := send("POST", "/v1/jobs", "", []byte(filler)); w.Code != http.StatusAccepted {
				t.Fatalf("prefill: %d %s", w.Code, w.Body)
			}
		}
		send(method, path, query, body)
		if flags&fuzzDrain != 0 {
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		send(method, path, query, body)

		w := send("GET", "/v1/stats", "", nil)
		var got statsPayload
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatalf("/v1/stats: %v: %s", err, w.Body)
		}
		if got.Counters != want {
			t.Fatalf("/v1/stats counters %+v, want %+v from the responses", got.Counters, want)
		}
		if uint64(got.Queued) != got.Counters.Enqueued {
			t.Fatalf("%d jobs queued, %d enqueued, and no worker to take one", got.Queued, got.Counters.Enqueued)
		}
	})
}
