package telemetry

import (
	"testing"
)

func ev(cycle uint64, kind Kind, src Source, msg uint64, a, b int32) Event {
	return Event{Cycle: cycle, Kind: kind, Src: src, Msg: msg, A: a, B: b}
}

func TestRecorderFlushMergesInRegistrationOrder(t *testing.T) {
	r := New(Options{Capacity: 16})
	b1, b2, b3 := r.NewBuf(), r.NewBuf(), r.NewBuf()
	// Emit out of registration order; the flush must drain b1, b2, b3.
	b3.Emit(ev(1, EvGaugeInFlight, NetworkSource(-1), 0, 3, 0))
	b1.Emit(ev(1, EvConnSetup, RouterSource(0, 0, 0), 0, 1, 2))
	b2.Emit(ev(1, EvMsgQueued, EndpointSource(4), 7, 5, 0))
	b1.Emit(ev(1, EvConnReleased, RouterSource(0, 0, 0), 0, 1, 2))
	r.Flush()
	got := r.Snapshot()
	want := []Kind{EvConnSetup, EvConnReleased, EvMsgQueued, EvGaugeInFlight}
	if len(got.Events) != len(want) {
		t.Fatalf("snapshot has %d events, want %d", len(got.Events), len(want))
	}
	for i, k := range want {
		if got.Events[i].Kind != k {
			t.Errorf("event %d kind = %v, want %v", i, got.Events[i].Kind, k)
		}
	}
	if b1.Len() != 0 || b2.Len() != 0 || b3.Len() != 0 {
		t.Error("flush left events in shard buffers")
	}
}

func TestRecorderRingOverwritesOldest(t *testing.T) {
	r := New(Options{Capacity: 4})
	b := r.NewBuf()
	for c := uint64(1); c <= 10; c++ {
		b.Emit(ev(c, EvMsgAttempt, EndpointSource(0), c, 0, 0))
		r.Flush()
	}
	if r.Total() != 10 {
		t.Errorf("Total = %d, want 10", r.Total())
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d, want 4 (the ring capacity)", r.Len())
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", r.Dropped())
	}
	tr := r.Snapshot()
	for i, e := range tr.Events {
		if want := uint64(7 + i); e.Cycle != want {
			t.Errorf("snapshot[%d].Cycle = %d, want %d (oldest-first window)", i, e.Cycle, want)
		}
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	if got := New(Options{}).Capacity(); got != DefaultCapacity {
		t.Fatalf("default capacity = %d, want %d", got, DefaultCapacity)
	}
}

func TestFlusherDrivesRecorder(t *testing.T) {
	r := New(Options{Capacity: 8})
	b := r.NewBuf()
	f := Flusher{R: r}
	b.Emit(ev(3, EvFault, RouterSource(1, 2, 0), 0, 0, 1))
	f.Eval(3)
	if r.Len() != 1 {
		t.Fatalf("flusher did not drain: Len = %d", r.Len())
	}
}

// BenchmarkRecorderSteadyState measures one warmed-up recording cycle:
// eight events emitted across two shard buffers, then a flush. After the
// buffers reach their high-water mark and the ring is allocated, the
// path must be allocation-free; TestZeroAllocRecorderSteadyState gates
// it.
func BenchmarkRecorderSteadyState(b *testing.B) {
	r := New(Options{Capacity: 1 << 12})
	b1, b2 := r.NewBuf(), r.NewBuf()
	src1, src2 := RouterSource(0, 3, 0), EndpointSource(5)
	// Warm-up: reach the per-cycle high-water mark once.
	for i := 0; i < 8; i++ {
		b1.Emit(ev(0, EvConnSetup, src1, 0, 1, 2))
		b2.Emit(ev(0, EvMsgAttempt, src2, 9, 1, 0))
	}
	r.Flush()
	var cycle uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 4; k++ {
			b1.Emit(ev(cycle, EvConnSetup, src1, 0, 1, 2))
			b2.Emit(ev(cycle, EvMsgAttempt, src2, 9, 1, 0))
		}
		r.Flush()
		cycle++
	}
}

// TestZeroAllocRecorderSteadyState asserts the enabled recording path —
// emit into shard buffers, flush into the ring — performs zero heap
// allocations once warm, the acceptance gate for "tracing on" overhead.
func TestZeroAllocRecorderSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	if testing.Short() {
		t.Skip("benchmark-backed allocation gate; CI runs it in the dedicated -run ZeroAlloc step")
	}
	res := testing.Benchmark(BenchmarkRecorderSteadyState)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("recorder steady state: %d allocs/op, want 0", a)
	}
}

// TestRecorderSinkObservesFlushedBatches proves the streaming sink
// adapter: every flush hands the sink each buffer's events in the same
// registration-order merge the ring receives, before buffers reset, and
// the ring's own contents are unchanged by the sink being attached.
func TestRecorderSinkObservesFlushedBatches(t *testing.T) {
	r := New(Options{Capacity: 16})
	b1, b2 := r.NewBuf(), r.NewBuf()
	var seen []Event
	r.SetSink(func(events []Event) {
		// The slice is reused after the call: copy, as the contract says.
		seen = append(seen, events...)
	})
	b2.Emit(ev(1, EvGaugeInFlight, NetworkSource(-1), 0, 3, 0))
	b1.Emit(ev(1, EvConnSetup, RouterSource(0, 0, 0), 0, 1, 2))
	r.Flush()
	b1.Emit(ev(2, EvConnReleased, RouterSource(0, 0, 0), 0, 1, 2))
	r.Flush()
	want := []Kind{EvConnSetup, EvGaugeInFlight, EvConnReleased}
	if len(seen) != len(want) {
		t.Fatalf("sink saw %d events, want %d", len(seen), len(want))
	}
	for i, k := range want {
		if seen[i].Kind != k {
			t.Errorf("sink event %d kind = %v, want %v", i, seen[i].Kind, k)
		}
	}
	snap := r.Snapshot()
	if len(snap.Events) != len(want) {
		t.Fatalf("ring recorded %d events with a sink attached, want %d", len(snap.Events), len(want))
	}
	for i := range snap.Events {
		if snap.Events[i] != seen[i] {
			t.Errorf("ring event %d differs from sink copy", i)
		}
	}
}

// TestStreamRecorderFeedsSinkOnly: a stream-only recorder hands its sink
// exactly the batches a ringed recorder would, in the same order, and
// retains nothing.
func TestStreamRecorderFeedsSinkOnly(t *testing.T) {
	var seen [2][]Event
	recs := [2]*Recorder{New(Options{Capacity: 4}), NewStream()}
	for i, r := range recs {
		i := i
		b1, b2 := r.NewBuf(), r.NewBuf()
		r.SetSink(func(events []Event) { seen[i] = append(seen[i], events...) })
		for c := uint64(1); c <= 6; c++ {
			b2.Emit(ev(c, EvGaugeInFlight, NetworkSource(-1), 0, int32(c), 0))
			if c%2 == 0 {
				b1.Emit(ev(c, EvConnSetup, RouterSource(0, 0, 0), 0, 1, 2))
			}
			r.Flush()
		}
		if b1.Len() != 0 || b2.Len() != 0 {
			t.Errorf("recorder %d: flush left events in its buffers", i)
		}
	}
	if len(seen[0]) != 9 || len(seen[1]) != len(seen[0]) {
		t.Fatalf("sinks saw %d and %d events, want 9 each", len(seen[0]), len(seen[1]))
	}
	for i := range seen[0] {
		if seen[0][i] != seen[1][i] {
			t.Errorf("event %d: ringed sink saw %v, stream-only sink saw %v", i, seen[0][i], seen[1][i])
		}
	}
	s := recs[1]
	if s.Capacity() != 0 || s.Len() != 0 {
		t.Errorf("stream-only recorder: Capacity %d, Len %d, want 0 and 0", s.Capacity(), s.Len())
	}
	if s.Total() != 9 || s.Dropped() != 9 {
		t.Errorf("stream-only recorder: Total %d, Dropped %d, want 9 and 9 (nothing is retained)", s.Total(), s.Dropped())
	}
	if tr := s.Snapshot(); len(tr.Events) != 0 || tr.Total != 9 {
		t.Errorf("stream-only snapshot: %d events, Total %d, want 0 and 9", len(tr.Events), tr.Total)
	}
}
