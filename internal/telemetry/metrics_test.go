package telemetry

import (
	"testing"

	"metro/internal/metrics"
)

// TestMetricsSinkTallies feeds a synthetic event stream through the
// bridge and checks both the per-run tallies and the live counters.
func TestMetricsSinkTallies(t *testing.T) {
	r := metrics.NewRegistry()
	s := &MetricsSink{
		Delivered: r.Counter("delivered_total", ""),
		Retried:   r.Counter("retried_total", ""),
		Failed:    r.Counter("failed_total", ""),
	}
	s.Sink([]Event{
		{Kind: EvMsgQueued},
		{Kind: EvMsgQueued},
		{Kind: EvMsgAttempt, A: 1},
		{Kind: EvMsgRetried, A: 1},
		{Kind: EvGaugeQueueDepth, A: 7, B: 3},
	})
	s.Sink([]Event{
		{Kind: EvGaugeQueueDepth, A: 4, B: 4},
		{Kind: EvMsgDelivered, A: 1},
		{Kind: EvMsgFailed, A: 5},
		{Kind: EvGaugeQueueDepth, A: 1, B: 1},
	})

	got := s.Stats()
	want := SinkStats{Offered: 2, Delivered: 1, Retried: 1, Failed: 1, MaxQueueDepth: 7}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if s.Delivered.Value() != 1 || s.Retried.Value() != 1 || s.Failed.Value() != 1 {
		t.Fatalf("live counters = %d/%d/%d, want 1/1/1",
			s.Delivered.Value(), s.Retried.Value(), s.Failed.Value())
	}
}

// TestMetricsSinkNilCounters verifies the bridge works with no live
// counters wired — tallies only.
func TestMetricsSinkNilCounters(t *testing.T) {
	s := &MetricsSink{}
	s.Sink([]Event{{Kind: EvMsgDelivered}, {Kind: EvMsgDelivered}})
	if s.Stats().Delivered != 2 {
		t.Fatalf("delivered = %d, want 2", s.Stats().Delivered)
	}
}

// TestMetricsSinkAsRecorderTap installs the bridge as a Recorder
// streaming tap and drives events through a Buf + Flush, the exact
// path netsim uses.
func TestMetricsSinkAsRecorderTap(t *testing.T) {
	rec := New(Options{Capacity: 64})
	s := &MetricsSink{}
	rec.SetSink(s.Sink)
	buf := rec.NewBuf()
	buf.Emit(Event{Cycle: 1, Kind: EvMsgQueued})
	buf.Emit(Event{Cycle: 2, Kind: EvMsgDelivered, A: 0})
	rec.Flush()
	got := s.Stats()
	if got.Offered != 1 || got.Delivered != 1 {
		t.Fatalf("stats = %+v, want offered 1 delivered 1", got)
	}
}
