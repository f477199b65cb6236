package clock

import (
	"time"

	"metro/internal/metrics"
)

// defaultMetricsEvery is the sampling period, in cycles, when
// EngineMetrics.Every is zero. Reading the wall clock only on the
// sampling grid keeps the per-cycle cost of enabled metrics to one
// counter increment and one modulo.
const defaultMetricsEvery = 1024

// EngineMetrics wires operational gauges into an Engine. All fields are
// optional (nil gauges discard updates), and every update is a plain
// atomic store — enabling metrics never allocates on the cycle path and
// never feeds values back into the model, so simulation results are
// bit-identical with metrics on or off.
//
// The wall clock is read only on the Every-cycle sampling grid, and only
// to compute throughput gauges; cycle-stamped simulation semantics never
// observe it (the metrovet no-wallclock valve below carries that
// argument).
type EngineMetrics struct {
	// Every is the sampling period in cycles; 0 means 1024.
	Every uint64

	// CyclesPerSec is the simulated-cycle throughput over the last
	// sampling window.
	CyclesPerSec *metrics.Gauge

	// StepNs is the mean wall time per cycle, in nanoseconds, over the
	// last sampling window.
	StepNs *metrics.Gauge

	// KernelUnits, KernelLinks, and KernelArenas are static-shape gauges
	// for a compiled kernel plane, filled by kernel.(*Compiled).PublishShape
	// at assembly time. The engine itself does not write them.
	KernelUnits  *metrics.Gauge
	KernelLinks  *metrics.Gauge
	KernelArenas *metrics.Gauge
}

// every returns the sampling period with the default applied.
func (m *EngineMetrics) every() uint64 {
	if m.Every == 0 {
		return defaultMetricsEvery
	}
	return m.Every
}

// SetMetrics attaches (or, with nil, detaches) operational gauges.
// Sampling state resets: the first window completes Every cycles after
// attachment.
func (e *Engine) SetMetrics(m *EngineMetrics) {
	e.met = m
	e.metN = 0
	e.metLast = time.Time{}
}

// metTick advances the sampling window after a completed cycle; on
// window boundaries it reads the wall clock and publishes the
// throughput gauges. Called only when metrics are attached.
func (e *Engine) metTick() {
	e.metN++
	every := e.met.every()
	if e.metN%every != 0 {
		return
	}
	now := time.Now() //metrovet:ignore no-wallclock throughput gauges sample wall time on the metrics grid; the value never reaches simulation state
	if !e.metLast.IsZero() {
		if dt := now.Sub(e.metLast); dt > 0 {
			e.met.CyclesPerSec.Set(float64(every) / dt.Seconds())
			e.met.StepNs.Set(float64(dt.Nanoseconds()) / float64(every))
		}
	}
	e.metLast = now
}
