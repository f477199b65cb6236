package netsim

import (
	"math/rand"
	"testing"

	"metro/internal/clock"
	"metro/internal/metrics"
	"metro/internal/telemetry"
	"metro/internal/topo"
)

// benchEngineMetrics builds a fully-populated engine-metrics block on a
// throwaway registry, sampling every 64 cycles — the operational
// configuration metroserve runs with.
func benchEngineMetrics() *clock.EngineMetrics {
	r := metrics.NewRegistry()
	return &clock.EngineMetrics{
		Every:        64,
		CyclesPerSec: r.Gauge("cps", ""),
		StepNs:       r.Gauge("step_ns", ""),
		KernelUnits:  r.Gauge("units", ""),
		KernelLinks:  r.Gauge("links", ""),
		KernelArenas: r.Gauge("arenas", ""),
	}
}

// benchCycles drives a congested Figure 3 network for b.N cycles with
// a fixed two-messages-per-cycle schedule — the whole-network hot loop
// the perf trajectory tracks. The recorder and the engine-metrics block,
// when non-nil, measure the enabled-observability overheads; metrobench
// reports each against the bare run.
func benchCycles(b *testing.B, rec *telemetry.Recorder, em *clock.EngineMetrics) {
	n, err := Build(Params{
		Spec: topo.Figure3(), Width: 8, DataPipe: 2, LinkDelay: 1,
		Seed: 71, RetryLimit: 600, ListenTimeout: 200, Recorder: rec,
		EngineMetrics: em,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	rng := rand.New(rand.NewSource(17))
	eps := n.Params.Spec.Endpoints
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 2; k++ {
			src, dest := rng.Intn(eps), rng.Intn(eps)
			if dest == src {
				dest = (dest + 1) % eps
			}
			n.Send(src, dest, benchPayload[:])
		}
		n.Engine.Step()
	}
}

var benchPayload [20]byte

// BenchmarkCongestedStep is the untraced baseline: ns per simulated
// cycle of a congested Figure 3 network. perf/BENCH_1..5 recorded the
// retired per-component engine under this name and this engine as
// BenchmarkKernelCongestedStep; compare across that boundary accordingly
// (EXPERIMENTS.md E19).
func BenchmarkCongestedStep(b *testing.B) {
	benchCycles(b, nil, nil)
}

// BenchmarkCongestedStepTraced is the same workload with the flight
// recorder attached; the delta against BenchmarkCongestedStep is the
// tracing overhead metrobench records.
func BenchmarkCongestedStepTraced(b *testing.B) {
	benchCycles(b, telemetry.New(telemetry.Options{}), nil)
}

// BenchmarkCongestedStepMetrics is the untraced congested workload with
// the operational-metrics block attached (cycles/sec and step-time
// sampling every 64 cycles). The delta against BenchmarkCongestedStep
// is the metrics-instrumentation overhead metrobench records — the
// BENCH_5 acceptance bar holds it at or under 2%.
func BenchmarkCongestedStepMetrics(b *testing.B) {
	benchCycles(b, nil, benchEngineMetrics())
}
