package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
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
// Progress events are kept in a bounded history, and every subscriber
// is a cursor into it: a late subscriber starts at the oldest event the
// history still holds, so "submit, then open the event stream" always
// observes the run even if the job finished in between — the replay is
// part of the API, not a race. Gauge events are live-only (they are
// high-rate samples, not a lifecycle): each subscriber keeps at most
// subBuffer unread ones, tagged with where they fall among the kept
// events. The terminal "done" event is kept too, and ends the stream.
//
// The simulation's epilogue goroutine never blocks on a slow client: it
// appends and wakes. A subscriber that cannot keep up has gauge frames
// dropped once its gauge slots are full, and loses a progress or "done"
// frame only once the history has overwritten it, as a late subscriber
// would. Every dropped frame increments serve_sse_dropped_frames_total,
// and the first drop on each connection is logged once so a slow client
// is diagnosable without flooding the log.
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

// subscriber is one attached SSE connection. Its fields are under hub.mu.
type subscriber struct {
	next    uint64       // the number of the next kept event it reads
	gauges  []gaugeFrame // unread gauge frames, at most subBuffer
	wake    chan struct{}
	dropped uint64 // frames this connection lost; the first one is logged
}

// gaugeFrame is an unread gauge frame, published when the hub had kept
// at events: it goes before kept event number at.
type gaugeFrame struct {
	at   uint64
	data []byte
}

// historyBound caps replayed events per job: at the default progress
// period even the hard-capped 5M-cycle run emits ~20k progress frames,
// so the bound keeps memory flat while preserving the stream's shape.
const historyBound = 1024

// subBuffer is how many unread gauge frames a subscriber keeps.
const subBuffer = 256

func newHub(jobID string, obs jobObs) *hub {
	if obs.log == nil {
		obs.log = slog.New(slog.DiscardHandler)
	}
	return &hub{jobID: jobID, obs: obs}
}

// publish records ev in the replay history (drop-oldest beyond
// historyBound) and wakes every subscriber.
func (h *hub) publish(ev streamEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if len(h.history) < historyBound {
		h.history = append(h.history, ev)
	} else {
		h.history[h.oldest] = ev
		h.oldest = (h.oldest + 1) % historyBound
	}
	h.kept++
	for _, sub := range h.subs {
		sub.notify()
	}
}

// publishGauge hands the live-only gauge frame for e to every subscriber,
// encoding it only once one of them has room: a subscriber whose gauge
// slots are full drops the frame (and counts it) without a frame built
// for it.
func (h *hub) publishGauge(e *telemetry.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	var data []byte
	for _, sub := range h.subs {
		if len(sub.gauges) == subBuffer {
			h.drop(sub)
			continue
		}
		if data == nil {
			data = appendGaugeFrame(make([]byte, 0, gaugeFrameCap), e)
		}
		sub.gauges = append(sub.gauges, gaugeFrame{at: h.kept, data: data})
		sub.notify()
	}
}

// notify wakes sub's reader, unless a wake-up is already pending.
func (sub *subscriber) notify() {
	select {
	case sub.wake <- struct{}{}:
	default:
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

// read appends to dst, in publish order, every frame sub has not read,
// and reports whether the stream is closed (its history then ends in
// "done"). Kept events the history has overwritten since sub's last read
// are lost, as for a late subscriber, and count as dropped.
func (h *hub) read(sub *subscriber, dst []streamEvent) ([]streamEvent, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	oldest := h.kept - uint64(len(h.history))
	for ; sub.next < oldest; sub.next++ {
		h.drop(sub)
	}
	dst = slices.Grow(dst, int(h.kept-sub.next)+len(sub.gauges))
	g := 0
	for ; sub.next < h.kept; sub.next++ {
		for ; g < len(sub.gauges) && sub.gauges[g].at <= sub.next; g++ {
			dst = append(dst, streamEvent{name: "gauge", data: sub.gauges[g].data})
		}
		dst = append(dst, h.history[(h.oldest+int(sub.next-oldest))%len(h.history)])
	}
	for _, f := range sub.gauges[g:] {
		dst = append(dst, streamEvent{name: "gauge", data: f.data})
	}
	clear(sub.gauges)
	sub.gauges = sub.gauges[:0]
	return dst, h.closed
}

// close marks the stream complete and wakes every subscriber to read the
// rest of the history, which now ends in "done".
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for _, sub := range h.subs {
		sub.notify()
		h.obs.subscribers.Add(-1)
	}
	h.subs = nil
	h.watchers.Store(0)
}

// watched reports whether any subscriber is attached right now. A frame
// that is not kept in the replay history (a gauge) and is published while
// this is false reaches no one, so its producer may skip it.
func (h *hub) watched() bool { return h.watchers.Load() > 0 }

// subscribe returns a subscriber whose cursor is at the oldest event the
// history holds. Its reader calls read, and waits on sub.wake until the
// batch ends in "done" or read reports the stream closed. A subscriber
// to a closed stream is not attached: it reads the whole history. cancel
// must be called when the subscriber leaves.
func (h *hub) subscribe() (*subscriber, func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sub := &subscriber{next: h.kept - uint64(len(h.history)), wake: make(chan struct{}, 1)}
	if h.closed {
		return sub, func() {}
	}
	h.subs = append(h.subs, sub)
	h.watchers.Add(1)
	h.obs.subscribers.Add(1)
	return sub, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		for i, have := range h.subs {
			if have == sub {
				h.subs[i] = h.subs[len(h.subs)-1]
				h.subs[len(h.subs)-1] = nil
				h.subs = h.subs[:len(h.subs)-1]
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
	j.hub.publish(streamEvent{name: "progress", data: data})
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
// returns at once; while every subscriber's gauge slots are full,
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

	sub, cancel := j.hub.subscribe()
	defer cancel()
	var batch []streamEvent
	for {
		var end bool
		batch, end = j.hub.read(sub, batch[:0])
		for _, ev := range batch {
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data); err != nil {
				return
			}
			if ev.name == "done" {
				end = true
				break
			}
		}
		// One flush a batch: a client that fell behind gets what it
		// missed in as few writes as the response buffer allows.
		fl.Flush()
		if end {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-sub.wake:
		}
	}
}
