package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"metro/internal/metrofuzz"
	"metro/internal/telemetry"
)

// Job/result status values. A job is content-addressed: its ID is the
// cache key of its (spec, options) pair, so identical submissions
// coalesce onto one record and one execution.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusPassed   = "passed"   // all oracles passed
	StatusFailed   = "failed"   // an oracle fired — a real divergence report
	StatusDeadline = "deadline" // canceled by the per-job deadline or drain
)

// Result is the stored outcome of one executed job — the JSON body
// served for it forever after. Marshaling is deterministic (fixed field
// order, no maps), so the cached bytes of a repeat submission are
// byte-identical to the first run's response.
type Result struct {
	ID          string   `json:"id"`
	Spec        string   `json:"spec"` // canonical encoding
	Engine      Engine   `json:"engine"`
	Status      string   `json:"status"`
	Cycles      uint64   `json:"cycles"`
	Offered     int      `json:"offered"`
	Delivered   int      `json:"delivered"`
	Duplicates  int      `json:"duplicates"`
	FaultsFired int      `json:"faultsFired"`
	Oracles     []string `json:"oracles"`
	Failures    []string `json:"failures,omitempty"`
	// Summary is byte-identical to `metrofuzz -replay -shrink=false`
	// output for this spec; the e2e harness diffs the two.
	Summary string `json:"summary"`
	// Trace carries the primary leg's mtr1 telemetry stream
	// when the job was submitted with trace=1.
	Trace string `json:"trace,omitempty"`
}

// job is one in-flight or retained execution record.
type job struct {
	id     string
	spec   string // canonical encoding
	scn    metrofuzz.Scenario
	engine Engine
	trace  bool

	hub  *hub
	done chan struct{}
	// logged is a latch, locked from newJob until the submit handler has
	// logged the job queued. The worker takes it before logging the job
	// running, so a job's lines keep their transition order without s.mu
	// held across the caller-supplied logger, and a retained job carries
	// no extra allocation for it.
	logged sync.Mutex

	// enqueuedAt is the wallclock instant the job entered the admission
	// queue; workers subtract it to observe queue wait. Observability
	// only — it never influences the simulation.
	enqueuedAt time.Time

	mu     sync.Mutex
	state  string // StatusQueued or StatusRunning until completion
	result *Result
	body   []byte // canonical marshaled result, the served bytes
}

func newJob(id, spec string, scn metrofuzz.Scenario, engine Engine, trace bool, obs jobObs) *job {
	j := &job{
		id:     id,
		spec:   spec,
		scn:    scn,
		engine: engine,
		trace:  trace,
		state:  StatusQueued,
		hub:    newHub(id, obs),
		done:   make(chan struct{}),
	}
	j.logged.Lock()
	return j
}

// status returns the job's current externally visible status.
func (j *job) status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result != nil {
		return j.result.Status
	}
	return j.state
}

// snapshot returns the completed result and its canonical bytes, or
// ok=false while the job is still pending.
func (j *job) snapshot() (*Result, []byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return nil, nil, false
	}
	return j.result, j.body, true
}

// complete stores the result, closes done, and emits the terminal SSE
// event.
func (j *job) complete(res *Result, body []byte) {
	j.mu.Lock()
	j.result = res
	j.body = body
	j.mu.Unlock()
	close(j.done)
	// SSE data must be newline-free; the canonical body carries one
	// trailing newline.
	j.hub.publish(streamEvent{name: "done", data: body[:len(body)-1]})
	j.hub.close()
}

// buildResult converts a finished oracle report into the stored Result.
func buildResult(j *job, rep *metrofuzz.Report, rec *telemetry.Recorder) *Result {
	res := &Result{
		ID:          j.id,
		Spec:        j.spec,
		Engine:      j.engine,
		Status:      StatusPassed,
		Cycles:      rep.Cycles,
		Offered:     rep.Offered,
		Delivered:   rep.Delivered,
		Duplicates:  rep.Duplicates,
		FaultsFired: rep.FaultsFired,
		Oracles:     metrofuzz.ArmedOracles(j.scn, j.engine == EngineKernel),
		Summary:     rep.Summary(),
	}
	switch {
	case rep.Canceled:
		res.Status = StatusDeadline
	case rep.Failed():
		res.Status = StatusFailed
	}
	for _, f := range rep.Failures {
		res.Failures = append(res.Failures, f.String())
	}
	if j.trace && rec != nil && !rep.Canceled {
		var b strings.Builder
		if err := telemetry.Encode(&b, rec.Snapshot()); err == nil {
			res.Trace = b.String()
		}
	}
	return res
}

// marshalResult renders the canonical response bytes: compact JSON plus
// a trailing newline.
func marshalResult(res *Result) []byte {
	body, err := json.Marshal(res)
	if err != nil {
		// Result contains only marshalable fields; reaching this is a
		// programming error, not an input error.
		panic(fmt.Sprintf("serve: marshal result: %v", err))
	}
	return append(body, '\n')
}
