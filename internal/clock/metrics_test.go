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

// newEngineMetrics builds a gauge set backed by a registry, with shard
// gauges for n shards.
func newEngineMetrics(every uint64, shards int) (*metrics.Registry, *EngineMetrics) {
	r := metrics.NewRegistry()
	m := &EngineMetrics{
		Every:        every,
		CyclesPerSec: r.Gauge("sim_cycles_per_second", ""),
		StepNs:       r.Gauge("sim_step_ns", ""),
	}
	v := r.GaugeVec("sim_shard_step_ns", "", "shard")
	for s := 0; s < shards; s++ {
		m.ShardNs = append(m.ShardNs, v.With(string(rune('0'+s))))
	}
	return r, m
}

// TestEngineMetricsSerial verifies the serial engine publishes
// throughput gauges on the sampling grid.
func TestEngineMetricsSerial(t *testing.T) {
	e := New()
	e.Add(&spinComp{})
	_, m := newEngineMetrics(8, 0)
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

// TestEngineMetricsParallelShards verifies per-partition step-time
// gauges are written on sampled cycles when workers are running.
func TestEngineMetricsParallelShards(t *testing.T) {
	e := New()
	e.SetKernel(newFakeKernel(&spinComp{}, &spinComp{}))
	e.SetWorkers(2)
	defer e.StopWorkers()
	_, m := newEngineMetrics(4, 2)
	e.SetMetrics(m)

	e.Run(64)
	for s, g := range m.ShardNs {
		if g.Value() <= 0 {
			t.Errorf("shard %d step ns = %v, want > 0", s, g.Value())
		}
	}
}

// TestEngineMetricsCoordinatorLane: at workers=1 the stepping goroutine
// is the only lane, and its partition's gauge is still published; inline
// execution (workers=0) is never timed per partition.
func TestEngineMetricsCoordinatorLane(t *testing.T) {
	for _, tc := range []struct {
		workers int
		timed   bool
	}{{0, false}, {1, true}} {
		e := New()
		e.SetKernel(newFakeKernel(&spinComp{}, &spinComp{}))
		e.SetWorkers(tc.workers)
		_, m := newEngineMetrics(4, 1)
		e.SetMetrics(m)
		e.Run(64)
		if got := m.ShardNs[0].Value() > 0; got != tc.timed {
			t.Errorf("workers=%d: shard 0 step ns = %v, timed = %v, want %v", tc.workers, m.ShardNs[0].Value(), got, tc.timed)
		}
	}
}

// TestEngineMetricsDetach verifies SetMetrics(nil) stops all updates
// and the engine keeps stepping.
func TestEngineMetricsDetach(t *testing.T) {
	e := New()
	e.Add(&spinComp{})
	_, m := newEngineMetrics(2, 0)
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
		if withMetrics {
			_, m := newEngineMetrics(4, 0)
			e.SetMetrics(m)
		}
		e.Run(100)
		return c.acc
	}
	if plain, instrumented := run(false), run(true); plain != instrumented {
		t.Fatalf("metrics perturbed the model: %d != %d", plain, instrumented)
	}
}
