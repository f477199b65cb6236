package clock

import (
	"testing"

	"metro/internal/metrics"
)

// spinComp burns a little deterministic work so sampled wall times are
// nonzero even at coarse clock resolution.
type spinComp struct {
	acc   uint64
	stage uint64
}

func (s *spinComp) Eval(cycle uint64) {
	v := s.acc
	for i := uint64(0); i < 2000; i++ {
		v = v*2654435761 + cycle + i
	}
	s.stage = v
}

func (s *spinComp) Commit(cycle uint64) { s.acc = s.stage }

// newEngineMetrics builds a gauge set backed by a registry.
func newEngineMetrics(every uint64) *EngineMetrics {
	r := metrics.NewRegistry()
	return &EngineMetrics{
		Every:        every,
		CyclesPerSec: r.Gauge("sim_cycles_per_second", ""),
		StepNs:       r.Gauge("sim_step_ns", ""),
	}
}

// TestEngineMetricsSerial verifies the serial engine publishes
// throughput gauges on the sampling grid.
func TestEngineMetricsSerial(t *testing.T) {
	e := New()
	e.Add(&spinComp{})
	m := newEngineMetrics(8)
	e.SetMetrics(m)

	e.Run(7)
	if m.CyclesPerSec.Value() != 0 {
		t.Fatal("gauge written before the first full sampling window")
	}
	// Two grid crossings are needed for a complete window.
	e.Run(9)
	if m.CyclesPerSec.Value() <= 0 {
		t.Fatalf("cycles/sec = %v, want > 0 after two sampling windows", m.CyclesPerSec.Value())
	}
	if m.StepNs.Value() <= 0 {
		t.Fatalf("step ns = %v, want > 0", m.StepNs.Value())
	}
}

// stepKernelWithMetrics runs a two-unit kernel for 64 cycles at the given
// worker count and demands the throughput gauges were published.
func stepKernelWithMetrics(t *testing.T, workers int) {
	t.Helper()
	e := New()
	e.SetKernel(newFakeKernel(&spinComp{}, &spinComp{}))
	e.SetWorkers(workers)
	defer e.StopWorkers()
	m := newEngineMetrics(4)
	e.SetMetrics(m)
	e.Run(64)
	if m.CyclesPerSec.Value() <= 0 || m.StepNs.Value() <= 0 {
		t.Errorf("workers=%d: cycles/sec = %v, step ns = %v, want both > 0", workers, m.CyclesPerSec.Value(), m.StepNs.Value())
	}
}

// TestEngineMetricsParallelShards verifies the throughput gauges are
// published when the kernel's units run partitioned across workers.
func TestEngineMetricsParallelShards(t *testing.T) { stepKernelWithMetrics(t, 2) }

// TestEngineMetricsCoordinatorLane: inline (workers=0) and at workers=1
// the stepping goroutine runs the only lane, with no worker goroutine,
// and the gauges are published all the same.
func TestEngineMetricsCoordinatorLane(t *testing.T) {
	stepKernelWithMetrics(t, 0)
	stepKernelWithMetrics(t, 1)
}

// TestEngineMetricsDetach verifies SetMetrics(nil) stops all updates
// and the engine keeps stepping.
func TestEngineMetricsDetach(t *testing.T) {
	e := New()
	e.Add(&spinComp{})
	m := newEngineMetrics(2)
	e.SetMetrics(m)
	e.Run(8)
	e.SetMetrics(nil)
	before := m.CyclesPerSec.Value()
	e.Run(64)
	if got := m.CyclesPerSec.Value(); got != before {
		t.Fatalf("gauge moved after detach: %v -> %v", before, got)
	}
	if e.Cycle() != 72 {
		t.Fatalf("cycle = %d, want 72", e.Cycle())
	}
}

// TestEngineMetricsDeterminism pins that attaching metrics does not
// perturb simulation state: the same component sequence lands in the
// same final state with metrics on and off.
func TestEngineMetricsDeterminism(t *testing.T) {
	run := func(withMetrics bool) uint64 {
		e := New()
		c := &spinComp{}
		e.Add(c)
		e.AddLatch(c)
		if withMetrics {
			e.SetMetrics(newEngineMetrics(4))
		}
		e.Run(100)
		return c.acc
	}
	if plain, instrumented := run(false), run(true); plain != instrumented {
		t.Fatalf("metrics perturbed the model: %d != %d", plain, instrumented)
	}
}
