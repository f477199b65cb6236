package traffic

import (
	"math/rand"

	"metro/internal/netsim"
	"metro/internal/nic"
	"metro/internal/stats"
)

// OpenLoop is a Bernoulli-injection workload: every cycle, each endpoint
// independently generates a new message with probability matching the
// target offered load, queueing behind whatever is already waiting. Unlike
// the closed-loop (processor-stall) model, generation does not wait for
// completions, so offered load beyond the network's saturation point
// builds unbounded queues — the classical workload for measuring saturation
// throughput.
type OpenLoop struct {
	// Load is the offered load: the fraction of each endpoint's injection
	// bandwidth that new message words would occupy.
	Load float64
	// MsgBytes is the fixed payload size.
	MsgBytes int
	// Pattern picks destinations (nil = Uniform).
	Pattern Pattern
	// Seed drives generation.
	Seed int64
	// Warmup discards results completing before this cycle.
	Warmup uint64
	// MaxQueue bounds each endpoint's backlog; generation pauses at the
	// bound (so saturated runs don't consume unbounded memory). 0 means
	// 1024.
	MaxQueue int

	net      *netsim.Network
	rng      *rand.Rand
	prob     float64
	measured []nic.Result
	injected int
}

// Bind attaches the driver to a built network and registers it with the
// engine. The network's Params.OnResult must have been set to OnResult.
func (o *OpenLoop) Bind(n *netsim.Network) {
	o.net = n
	o.rng = rand.New(rand.NewSource(o.Seed))
	if o.Pattern == nil {
		o.Pattern = Uniform{}
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 1024
	}
	msgWords := float64(n.MessageWords(o.MsgBytes))
	o.prob = o.Load / msgWords
	n.Engine.Add(o)
}

// OnResult is the completion callback to wire into netsim.Params.
func (o *OpenLoop) OnResult(r nic.Result) {
	if r.Done >= o.Warmup {
		o.measured = append(o.measured, r)
	}
}

// Eval implements clock.Component.
//
//metrovet:shared driver registers via Engine.Add, so it runs in the serialized epilogue after every endpoint has evaluated
func (o *OpenLoop) Eval(cycle uint64) {
	n := len(o.net.Endpoints)
	for e := 0; e < n; e++ {
		if o.net.Endpoints[e].QueueLen() >= o.MaxQueue {
			continue
		}
		if o.rng.Float64() >= o.prob {
			continue
		}
		dest := o.Pattern.Dest(e, n, o.rng)
		//metrovet:alloc per-injected-message payload; ownership transfers to the endpoint queue
		payload := make([]byte, o.MsgBytes)
		o.rng.Read(payload)
		o.net.Send(e, dest, payload)
		o.injected++
	}
}

// Injected returns the number of messages generated.
func (o *OpenLoop) Injected() int { return o.injected }

// Measured returns the post-warmup results.
func (o *OpenLoop) Measured() []nic.Result { return o.measured }

// Point summarizes the measured interval.
func (o *OpenLoop) Point() stats.LoadPoint {
	return summarise(o.net, o.Load, o.MsgBytes, o.measured)
}
