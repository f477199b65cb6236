package traffic

import (
	"metro/internal/netsim"
	"metro/internal/nic"
	"metro/internal/stats"
)

// RunSpec describes one measurement run, closed-loop (Run) or open-loop
// (RunOpenLoop, which ignores Outstanding).
type RunSpec struct {
	// Net configures the network. Any OnResult hook it carries is
	// chained after the driver's own accounting.
	Net netsim.Params
	// Load is the target offered load in (0, 1].
	Load float64
	// MsgBytes is the payload size.
	MsgBytes int
	// Pattern selects destinations; nil means Uniform.
	Pattern Pattern
	// Outstanding is the per-endpoint in-flight bound (default 1).
	Outstanding int
	// WarmupCycles are excluded from measurement.
	WarmupCycles uint64
	// MeasureCycles is the measured interval length.
	MeasureCycles uint64
	// Seed drives the workload.
	Seed int64
}

// Run executes one closed-loop simulation and summarizes it.
func Run(spec RunSpec) (stats.LoadPoint, error) {
	return run(spec, &ClosedLoop{
		Load:        spec.Load,
		MsgBytes:    spec.MsgBytes,
		Pattern:     spec.Pattern,
		Outstanding: spec.Outstanding,
		Seed:        spec.Seed,
		Warmup:      spec.WarmupCycles,
	})
}

// RunOpenLoop executes one open-loop measurement.
func RunOpenLoop(spec RunSpec) (stats.LoadPoint, error) {
	return run(spec, &OpenLoop{
		Load:     spec.Load,
		MsgBytes: spec.MsgBytes,
		Pattern:  spec.Pattern,
		Seed:     spec.Seed,
		Warmup:   spec.WarmupCycles,
	})
}

// workload is the part of a workload driver a measurement run uses.
type workload interface {
	OnResult(nic.Result)
	Bind(*netsim.Network)
	Point() stats.LoadPoint
}

// run builds spec's network with d's accounting chained ahead of any
// OnResult hook the spec carries, drives it through warmup and the
// measured interval, and returns d's summary.
func run(spec RunSpec, d workload) (stats.LoadPoint, error) {
	prev := spec.Net.OnResult
	spec.Net.OnResult = func(r nic.Result) {
		d.OnResult(r)
		if prev != nil {
			prev(r)
		}
	}
	n, err := netsim.Build(spec.Net)
	if err != nil {
		return stats.LoadPoint{}, err
	}
	defer n.Close() // release parallel-engine workers between sweep points
	d.Bind(n)
	n.Run(spec.WarmupCycles + spec.MeasureCycles)
	return d.Point(), nil
}

// Sweep runs the spec across a series of offered loads, producing a
// load-latency curve (the paper's Figure 3).
func Sweep(spec RunSpec, loads []float64) ([]stats.LoadPoint, error) {
	return sweep(spec, loads, Run)
}

// SweepOpenLoop measures an open-loop curve across offered loads; past
// saturation the accepted load plateaus while queueing latency diverges.
func SweepOpenLoop(spec RunSpec, loads []float64) ([]stats.LoadPoint, error) {
	return sweep(spec, loads, RunOpenLoop)
}

func sweep(spec RunSpec, loads []float64, one func(RunSpec) (stats.LoadPoint, error)) ([]stats.LoadPoint, error) {
	points := make([]stats.LoadPoint, 0, len(loads))
	for _, l := range loads {
		spec.Load = l
		p, err := one(spec)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

// summarise reduces the post-warmup results of a run at the given offered
// load to a load-latency point.
func summarise(n *netsim.Network, load float64, msgBytes int, measured []nic.Result) stats.LoadPoint {
	var lat, qlat stats.Sample
	delivered, retries := 0, 0
	var firstDone, lastDone uint64
	for _, r := range measured {
		lat.Add(float64(r.Done - r.Injected))
		qlat.Add(float64(r.Done - r.Msg.Created))
		if r.Delivered {
			delivered++
		}
		retries += r.Retries
		if firstDone == 0 || r.Done < firstDone {
			firstDone = r.Done
		}
		if r.Done > lastDone {
			lastDone = r.Done
		}
	}
	p := stats.LoadPoint{
		OfferedLoad:  load,
		Latency:      lat.Summarize(),
		QueueLatency: qlat.Summarize(),
		Messages:     len(measured),
		Delivered:    delivered,
	}
	if len(measured) > 0 {
		p.RetriesPerMessage = float64(retries) / float64(len(measured))
		if lastDone > firstDone {
			msgWords := float64(n.MessageWords(msgBytes))
			perEndpoint := float64(len(measured)) / float64(len(n.Endpoints))
			p.AcceptedLoad = perEndpoint * msgWords / float64(lastDone-firstDone)
		}
	}
	return p
}
