package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"metro/internal/metrics"
	"metro/internal/telemetry"
)

// jobObs bundles the observability handles a job's SSE hub reports
// into: the open-subscription gauge, the dropped-frame counter, and the
// server log. The zero value is valid (nil metric cells discard
// updates; a nil logger is replaced with a discard logger), so tests
// can build hubs bare.
type jobObs struct {
	subscribers *metrics.Gauge
	dropped     *metrics.Counter
	log         *slog.Logger
}

// jobObs returns the server's observability handles for a new job.
func (s *Server) jobObs() jobObs {
	return jobObs{subscribers: s.met.sseSubscribers, dropped: s.met.sseDropped, log: s.log}
}

// streamEvent is one SSE frame: an event name and a single-line JSON
// payload.
type streamEvent struct {
	name string
	data []byte
}

// hub fans a job's event stream out to any number of SSE subscribers.
//
// Progress events are kept in a bounded history that is replayed to
// late subscribers, so "submit, then open the event stream" always
// observes the run even if the job finished in between — the replay is
// part of the API, not a race. Gauge events are live-only (they are
// high-rate samples, not a lifecycle), and the terminal "done" event is
// both appended to history and closes the stream.
//
// Subscriber channels are bounded; the simulation's epilogue goroutine
// must never block on a slow client. A subscriber that cannot keep up
// has gauge frames dropped, and the replayable frames it has no room for
// wait in the history until it has drained its channel (catchUp), so it
// loses a progress or "done" frame only once the history has overwritten
// it, as a late subscriber would. Every dropped frame increments
// serve_sse_dropped_frames_total, and the first drop on each connection
// is logged once so a slow client is diagnosable without flooding the
// log.
type hub struct {
	mu    sync.Mutex
	jobID string
	obs   jobObs
	subs  []*subscriber
	// history is the replay history, a ring once it holds historyBound
	// events: oldest is the index of its oldest event (0 until it fills).
	history []streamEvent
	oldest  int
	kept    uint64 // replayable events published so far; the newest is kept-1
	closed  bool
	dropped uint64 // total frames dropped across all subscribers
	// watchers mirrors len(subs) for lock-free reads: the gauge forwarder
	// asks it on the stepping goroutine before encoding a live-only frame
	// nobody would receive. Written under mu.
	watchers atomic.Int32
}

// subscriber is one attached SSE connection.
type subscriber struct {
	ch      chan streamEvent
	dropped uint64 // frames this connection lost; the first one is logged
	// behind is set when a replayable event finds ch full: from then on
	// the connection's replayable events wait in the history, from number
	// from on, and its gauge frames drop, until catchUp. Both under hub.mu.
	behind bool
	from   uint64
}

// historyBound caps replayed events per job: at the default progress
// period even the hard-capped 5M-cycle run emits ~20k progress frames,
// so the bound keeps memory flat while preserving the stream's shape.
const historyBound = 1024

// subBuffer is each subscriber's channel depth.
const subBuffer = 256

func newHub(jobID string, obs jobObs) *hub {
	if obs.log == nil {
		obs.log = slog.New(slog.DiscardHandler)
	}
	return &hub{jobID: jobID, obs: obs}
}

// publish sends ev to every subscriber; keep additionally records it in
// the replay history (drop-oldest beyond historyBound).
func (h *hub) publish(ev streamEvent, keep bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if keep {
		if len(h.history) < historyBound {
			h.history = append(h.history, ev)
		} else {
			h.history[h.oldest] = ev
			h.oldest = (h.oldest + 1) % historyBound
		}
		h.kept++
	}
	for _, sub := range h.subs {
		switch {
		case sub.behind && keep:
			// Waits in the history for catchUp.
		case sub.behind:
			h.drop(sub)
		case keep:
			select {
			case sub.ch <- ev:
			default:
				sub.behind, sub.from = true, h.kept-1
			}
		default:
			h.send(sub, ev)
		}
	}
}

// publishGauge sends the live-only gauge frame for e to every subscriber,
// encoding it only once one of them has room: a full subscriber drops the
// frame (and counts it) exactly as publish would, without a frame built
// for it. Only the hub sends, under mu, so room seen here stays room.
func (h *hub) publishGauge(e *telemetry.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	var ev streamEvent
	for _, sub := range h.subs {
		if sub.behind || len(sub.ch) == cap(sub.ch) {
			h.drop(sub)
			continue
		}
		if ev.data == nil {
			ev = streamEvent{name: "gauge", data: appendGaugeFrame(make([]byte, 0, gaugeFrameCap), e)}
		}
		h.send(sub, ev)
	}
}

// send hands ev to sub, or drops it when sub's channel is full. Call it
// with mu held.
func (h *hub) send(sub *subscriber, ev streamEvent) {
	select {
	case sub.ch <- ev:
	default:
		h.drop(sub)
	}
}

// drop counts one frame sub missed, and logs its first. Call it with mu
// held.
func (h *hub) drop(sub *subscriber) {
	sub.dropped++
	h.dropped++
	h.obs.dropped.Inc()
	if sub.dropped == 1 {
		h.obs.log.LogAttrs(context.Background(), slog.LevelWarn, "sse_slow_subscriber",
			slog.String("job", h.jobID))
	}
}

// catchUp returns, in publish order, the replayable events sub had no
// room for, and resumes live delivery to it. Its reader calls it once the
// channel is empty, so each event follows everything sub was sent. Events
// the history has overwritten since are lost, as for a late subscriber,
// and count as dropped.
func (h *hub) catchUp(sub *subscriber) []streamEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !sub.behind {
		return nil
	}
	sub.behind = false
	oldest := h.kept - uint64(len(h.history))
	for ; sub.from < oldest; sub.from++ {
		h.drop(sub)
	}
	out := make([]streamEvent, 0, h.kept-sub.from)
	for n := sub.from; n < h.kept; n++ {
		out = append(out, h.history[(h.oldest+int(n-oldest))%len(h.history)])
	}
	return out
}

// close marks the stream complete; subscribers' channels are closed
// after the history (which now ends in "done") has been delivered.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for _, sub := range h.subs {
		close(sub.ch)
		h.obs.subscribers.Add(-1)
	}
	h.subs = nil
	h.watchers.Store(0)
}

// watched reports whether any subscriber is attached right now. A frame
// that is not kept in the replay history (a gauge) and is published while
// this is false reaches no one, so its producer may skip it.
func (h *hub) watched() bool { return h.watchers.Load() > 0 }

// subscribe returns the replay history and a live subscriber (nil if the
// stream already closed — the history then ends with the terminal
// event), whose reader takes sub.ch and, each time it has emptied it,
// catchUp(sub). cancel must be called when the subscriber leaves.
func (h *hub) subscribe() (replay []streamEvent, sub *subscriber, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = make([]streamEvent, 0, len(h.history))
	replay = append(append(replay, h.history[h.oldest:]...), h.history[:h.oldest]...)
	if h.closed {
		return replay, nil, func() {}
	}
	sub = &subscriber{ch: make(chan streamEvent, subBuffer)}
	h.subs = append(h.subs, sub)
	h.watchers.Add(1)
	h.obs.subscribers.Add(1)
	return replay, sub, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		for i, have := range h.subs {
			if have == sub {
				h.subs[i] = h.subs[len(h.subs)-1]
				h.subs[len(h.subs)-1] = nil
				h.subs = h.subs[:len(h.subs)-1]
				close(sub.ch)
				h.watchers.Add(-1)
				h.obs.subscribers.Add(-1)
				break
			}
		}
	}
}

// progressPayload is the SSE "progress" frame body.
type progressPayload struct {
	Cycle     uint64 `json:"cycle"`
	Offered   int    `json:"offered"`
	Completed int    `json:"completed"`
	Delivered int    `json:"delivered"`
}

// publishProgress emits one cycle-stamped progress frame (replayable).
func (j *job) publishProgress(cycle uint64, offered, completed, delivered int) {
	data, _ := json.Marshal(progressPayload{Cycle: cycle, Offered: offered, Completed: completed, Delivered: delivered})
	j.hub.publish(streamEvent{name: "progress", data: data}, true)
}

// gaugePayload is the SSE "gauge" frame body: one telemetry gauge
// sample off the metrotrace bus.
type gaugePayload struct {
	Cycle uint64 `json:"cycle"`
	Kind  string `json:"kind"`
	Stage int    `json:"stage"` // -1 for whole-network gauges
	Value int32  `json:"value"`
}

// appendGaugeFrame appends the gauge frame for e to dst: byte for byte
// what json.Marshal(gaugePayload{...}) renders, without the reflection
// walk. The gauge kind mnemonics are plain ASCII, so quoting them needs
// no escaping; TestGaugeFrameMatchesJSON holds the two encodings equal.
func appendGaugeFrame(dst []byte, e *telemetry.Event) []byte {
	dst = append(dst, `{"cycle":`...)
	dst = strconv.AppendUint(dst, e.Cycle, 10)
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, e.Kind.String()...)
	dst = append(dst, `","stage":`...)
	dst = strconv.AppendInt(dst, int64(e.Src.Stage), 10)
	dst = append(dst, `,"value":`...)
	dst = strconv.AppendInt(dst, int64(e.A), 10)
	return append(dst, '}')
}

// gaugeFrameCap covers the longest gauge frame (a 20-digit cycle, the
// longest kind mnemonic, a 6-character stage, an 11-character value), so
// a frame is one allocation.
const gaugeFrameCap = 96

// gaugeSink adapts the telemetry recorder's streaming sink to the job's
// SSE hub: gauge events whose cycle lands on the every-cycle grid are
// forwarded live. Gauge frames are never kept for replay, so while no
// subscriber is attached there is no one to encode them for and the sink
// returns at once; while every subscriber's channel is full,
// hub.publishGauge counts the drop without encoding. It runs on the
// engine's flushing goroutine, so it must not block — the hub drops on
// slow subscribers by design.
func (j *job) gaugeSink(every uint64) func([]telemetry.Event) {
	if every == 0 {
		every = 1
	}
	return func(events []telemetry.Event) {
		if !j.hub.watched() {
			return
		}
		for i := range events {
			e := &events[i]
			if e.Kind.Family() != "gauge" || e.Cycle%every != 0 {
				continue
			}
			j.hub.publishGauge(e)
		}
	}
}

// serveEvents streams a job's frames as Server-Sent Events until the
// terminal event or client disconnect.
func serveEvents(w http.ResponseWriter, r *http.Request, j *job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "serve: response writer does not support streaming", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	// Flush the headers now: a subscriber to a still-queued job must see
	// the stream open immediately, not after the first frame.
	fl.Flush()

	write := func(ev streamEvent) bool {
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data); err != nil {
			return false
		}
		fl.Flush()
		return ev.name != "done"
	}

	replay, sub, cancel := j.hub.subscribe()
	defer cancel()
	for _, ev := range replay {
		if !write(ev) {
			return
		}
	}
	if sub == nil {
		return
	}
	// The terminal event arrives on the channel or, when the channel was
	// full, from catchUp, which the channel's close is followed by.
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.ch:
			if ok && !write(ev) {
				return
			}
			if len(sub.ch) > 0 {
				continue
			}
			for _, ev := range j.hub.catchUp(sub) {
				if !write(ev) {
					return
				}
			}
			if !ok {
				return
			}
		}
	}
}
