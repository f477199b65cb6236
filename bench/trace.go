package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, recorded by bench
// code around its calls into the program under test. parent is the
// index of the causing span in the same buffer (-1 for a root); op
// groups the spans of one operation (a repetition, a request, a job).
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32
	op         int64
}

// spanBuf is a preallocated, single-goroutine span log. A nil *spanBuf
// records nothing, so untraced runs pay one nil check per boundary.
type spanBuf struct {
	epoch time.Time
	tid   int
	spans []span
}

func newSpanBuf(epoch time.Time, tid, capacity int) *spanBuf {
	return &spanBuf{epoch: epoch, tid: tid, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index, or -1 when tracing is off.
func (b *spanBuf) begin(name string, parent int32, op int64) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: name, start: int64(time.Since(b.epoch)), end: -1, parent: parent, op: op})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) finish(id int32) {
	if b == nil || id < 0 {
		return
	}
	b.spans[id].end = int64(time.Since(b.epoch))
}

// add records a span whose bounds the caller already measured.
func (b *spanBuf) add(name string, start, end time.Time, parent int32, op int64) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: name, start: int64(start.Sub(b.epoch)), end: int64(end.Sub(b.epoch)), parent: parent, op: op})
	return int32(len(b.spans) - 1)
}

// selfTimes returns, per span name, the total duration and the self
// time (duration minus the part covered by direct children) in ns.
func selfTimes(spans []span) (total, self map[string]int64) {
	total = map[string]int64{}
	self = map[string]int64{}
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.end < 0 {
			continue
		}
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		total[s.name] += d
		self[s.name] += d - child[i]
	}
	return total, self
}

// maxSpansWritten bounds the trace file: a fig3 repetition alone steps
// ~50k cycles, and a viewer needs the shape, not every cycle.
const maxSpansWritten = 200_000

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace renders the buffers as Chrome trace-event JSON (loadable
// in Perfetto / chrome://tracing) at dir/<workload>.trace.json.
func writeTrace(dir, workload string, bufs ...*spanBuf) (string, error) {
	var events []traceEvent
	for _, b := range bufs {
		if b == nil {
			continue
		}
		for i, s := range b.spans {
			if len(events) >= maxSpansWritten {
				break
			}
			if s.end < 0 {
				continue
			}
			events = append(events, traceEvent{
				Name: s.name, Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: b.tid,
				Args: map[string]any{"span": i, "parent": s.parent, "op": s.op},
			})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
		Unit        string       `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return "", fmt.Errorf("trace encode: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace write: %w", err)
	}
	return path, nil
}
