package telemetry

// Buf is a unit-local event buffer. Every emitter group that may run on
// its own engine worker (a router column, an endpoint, the network-scope
// epilogue emitters) appends into its own Buf during Eval — no locks, no
// cross-worker traffic — and the Recorder drains every Buf in its fixed
// registration order at the cycle barrier. Because the drain order is a
// pure function of network construction (never of goroutine timing), the
// merged stream is identical at every worker count.
//
// Emit may grow the buffer's backing array while the simulation warms
// up; once the high-water mark is reached the append stays within
// capacity and the recording path allocates nothing.
type Buf struct {
	events []Event
}

// Emit appends one event.
//
//metrovet:alloc amortized growth to the per-cycle high-water mark; steady state appends within capacity
func (b *Buf) Emit(e Event) {
	b.events = append(b.events, e)
}

// Len reports buffered events not yet drained.
func (b *Buf) Len() int { return len(b.events) }

// Options configures a Recorder.
type Options struct {
	// Capacity bounds the flight-recorder ring in events; when full, the
	// oldest events are overwritten. 0 selects DefaultCapacity.
	Capacity int
}

// DefaultCapacity is the flight-recorder ring size when Options.Capacity
// is 0: large enough to hold the full event stream of the repo's
// standard experiment runs, small enough to stay cheap (40 B/event).
const DefaultCapacity = 1 << 18

// Recorder is the flight recorder: a bounded ring of the most recent
// events, fed by per-unit Bufs. NewBuf registers buffers at network
// construction time; Flush (driven by a Flusher component in the
// engine's serialized epilogue) drains them in registration order.
//
// The ring is preallocated and every Buf grows only to the workload's
// high-water mark, so steady-state recording is allocation-free — the
// zero-alloc gate in this package proves it.
type Recorder struct {
	ring  []Event // nil for a stream-only recorder (NewStream)
	head  int     // next write position
	count int     // live events in the ring
	total uint64  // events ever recorded, including overwritten ones
	bufs  []*Buf
	sink  func([]Event)
}

// New constructs a Recorder with a preallocated ring.
func New(opts Options) *Recorder {
	c := opts.Capacity
	if c <= 0 {
		c = DefaultCapacity
	}
	return &Recorder{ring: make([]Event, c)}
}

// NewStream constructs a stream-only Recorder: one with no ring. The
// sink still sees every drained event in the same registration-order
// merge and Total still counts them, but nothing is retained: Capacity
// and Len are 0, Snapshot is empty and Dropped equals Total. It is the
// recorder for a run whose events are only ever watched live (metrics
// bridges, SSE forwarders), which then does not pay for a ring it never
// reads.
func NewStream() *Recorder { return &Recorder{} }

// NewBuf registers and returns a new unit-local buffer. Registration
// order defines the within-cycle merge order of the recorded stream, so
// callers must register in a deterministic order (netsim registers
// router columns stage-major, then endpoints, then the network buf).
func (r *Recorder) NewBuf() *Buf {
	b := &Buf{}
	r.bufs = append(r.bufs, b)
	return b
}

// SetSink registers fn as the streaming sink: every Flush hands it each
// drained buffer's events (in the same deterministic registration-order
// merge the ring sees) before the buffer is reset. The slice is only
// valid for the duration of the call — the buffer backing it is reused
// next cycle — so a sink that retains events must copy them. The sink
// runs on the flushing goroutine (the stepping goroutine, in the
// serialized epilogue), so it must be fast and must never block on the
// simulation's own output; metroserve's adapter copies into a bounded
// channel and drops on overflow. Set it before the clock starts and
// leave it in place: with no sink the recording path stays
// allocation-free exactly as before.
func (r *Recorder) SetSink(fn func([]Event)) { r.sink = fn }

// Flush drains every registered Buf, in registration order, to the sink
// and into the ring (when there is one). A Flusher component calls it
// once per cycle at the barrier.
func (r *Recorder) Flush() {
	for _, b := range r.bufs {
		if len(b.events) == 0 {
			continue
		}
		if r.sink != nil {
			r.sink(b.events)
		}
		if r.ring != nil {
			r.record(b.events)
		}
		r.total += uint64(len(b.events))
		b.events = b.events[:0]
	}
}

// record copies events into the ring, overwriting the oldest.
func (r *Recorder) record(events []Event) {
	for i := range events {
		r.ring[r.head] = events[i]
		r.head++
		if r.head == len(r.ring) {
			r.head = 0
		}
		if r.count < len(r.ring) {
			r.count++
		}
	}
}

// Len reports live events in the ring.
func (r *Recorder) Len() int { return r.count }

// Capacity reports the ring size; 0 for a stream-only recorder.
func (r *Recorder) Capacity() int { return len(r.ring) }

// Total reports events ever recorded, including those the ring has since
// overwritten.
func (r *Recorder) Total() uint64 { return r.total }

// Dropped reports events lost to ring overwrite.
func (r *Recorder) Dropped() uint64 { return r.total - uint64(r.count) }

// Snapshot copies the live ring contents, oldest first, together with
// the lifetime totals. Pending (unflushed) Buf events are not included;
// snapshot between cycles or after a final Flush.
func (r *Recorder) Snapshot() Trace {
	out := make([]Event, r.count)
	start := r.head - r.count
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.count; i++ {
		out[i] = r.ring[(start+i)%len(r.ring)]
	}
	return Trace{Events: out, Total: r.total}
}

// Trace is a recorded event stream: the flight recorder's live window
// plus the lifetime event count (Total - len(Events) were overwritten).
type Trace struct {
	Events []Event
	Total  uint64
}

// Flusher adapts a Recorder to the simulation clock. Register it with
// plain Engine.Add (netsim does this during Build): it then runs in the
// serialized epilogue, after the barrier, where every unit's Buf is
// quiescent.
type Flusher struct {
	R *Recorder
}

// Eval implements clock.Component.
func (f Flusher) Eval(cycle uint64) { f.R.Flush() }
