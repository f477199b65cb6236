package telemetry

import "metro/internal/metrics"

// MetricsSink bridges the telemetry bus into the operational-metrics
// layer: install its Sink method as (or inside) a Recorder streaming
// tap and it tallies message dispositions and queue-occupancy peaks as
// the flusher drains each cycle's events.
//
// Like every telemetry sink it is observe-only: Sink writes nothing but
// its own tallies and the wired metric cells. It runs on the flushing
// goroutine in the serialized epilogue, does no allocation and never
// blocks, so recording stays zero-alloc with the bridge attached.
//
// The optional counter fields accumulate across runs (a service's
// fleet-wide totals); the per-run tallies returned by Stats reset with
// each new MetricsSink. Stats must be read only after the run
// completes: the engine's phase barrier orders the flusher's writes
// before the driving goroutine's reads, but nothing orders them during
// a run.
type MetricsSink struct {
	// Delivered, Retried, and Failed count final and intermediate
	// message dispositions across the sink's lifetime. Nil counters
	// discard updates.
	Delivered *metrics.Counter
	Retried   *metrics.Counter
	Failed    *metrics.Counter

	offered   uint64
	delivered uint64
	retried   uint64
	failed    uint64
	maxQueue  int32 // peak network-wide queued messages
}

// SinkStats is a per-run summary of what the bridge observed.
type SinkStats struct {
	// Offered counts EvMsgQueued events: messages entering send queues.
	Offered uint64
	// Delivered, Retried, and Failed count the corresponding message
	// events.
	Delivered uint64
	Retried   uint64
	Failed    uint64
	// MaxQueueDepth is the peak network-wide queued-message count seen
	// by the EvGaugeQueueDepth sampler. It requires a gauge-sampling
	// Recorder build (netsim wires the sampler whenever a Recorder is
	// attached).
	MaxQueueDepth int32
}

// Sink consumes one buffer's drained events. It is shaped for
// Recorder.SetSink — compose it with other taps by calling it from a
// closure. The slice is only valid during the call; Sink reads it
// without retaining.
func (s *MetricsSink) Sink(events []Event) {
	for i := range events {
		k := events[i].Kind
		if k == EvMsgQueued {
			s.offered++
		} else if k == EvMsgDelivered {
			s.delivered++
			s.Delivered.Inc()
		} else if k == EvMsgRetried {
			s.retried++
			s.Retried.Inc()
		} else if k == EvMsgFailed {
			s.failed++
			s.Failed.Inc()
		} else if k == EvGaugeQueueDepth {
			if a := events[i].A; a > s.maxQueue {
				s.maxQueue = a
			}
		}
	}
}

// Stats returns the per-run tallies. Call only after the run has
// completed (see the type comment for the ordering argument).
func (s *MetricsSink) Stats() SinkStats {
	return SinkStats{
		Offered:       s.offered,
		Delivered:     s.delivered,
		Retried:       s.retried,
		Failed:        s.failed,
		MaxQueueDepth: s.maxQueue,
	}
}
