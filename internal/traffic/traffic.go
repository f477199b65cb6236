// Package traffic generates workloads for METRO network simulations.
//
// The paper's Figure 3 measures latency versus network loading for
// randomly distributed, fixed-size message traffic under a
// parallelism-limited model: processors stall waiting for message
// completion. ClosedLoop models exactly that — each endpoint keeps at most
// a fixed number of messages outstanding and, after each completion, waits
// a geometrically distributed think time calibrated to the target offered
// load before issuing the next message.
package traffic

import (
	"math/rand"

	"metro/internal/netsim"
	"metro/internal/nic"
	"metro/internal/stats"
)

// Pattern selects message destinations.
type Pattern interface {
	// Dest returns the destination for a message from src in an n-endpoint
	// network. It must not return src.
	Dest(src, n int, rng *rand.Rand) int
	// Name identifies the pattern in reports.
	Name() string
}

// Uniform selects destinations uniformly at random (the paper's "randomly
// distributed" traffic).
type Uniform struct{}

// Dest implements Pattern.
func (Uniform) Dest(src, n int, rng *rand.Rand) int {
	d := rng.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// Name implements Pattern.
func (Uniform) Name() string { return "uniform" }

// Hotspot sends a fraction of traffic to a single hot endpoint and the
// rest uniformly.
type Hotspot struct {
	Target   int
	Fraction float64
}

// Dest implements Pattern.
func (h Hotspot) Dest(src, n int, rng *rand.Rand) int {
	if rng.Float64() < h.Fraction && h.Target != src {
		return h.Target
	}
	return Uniform{}.Dest(src, n, rng)
}

// Name implements Pattern.
func (h Hotspot) Name() string { return "hotspot" }

// BitReverse sends each source to the bit-reversal of its own index, a
// classically adversarial permutation for butterflies.
type BitReverse struct{}

// Dest implements Pattern.
//
//metrovet:width n is the endpoint count, a power of two far below 2^31, so bits stays below 31
//metrovet:truncate bits-1-i is nonnegative inside the i < bits loop
func (BitReverse) Dest(src, n int, rng *rand.Rand) int {
	bits := 0
	for 1<<uint(bits) < n {
		bits++
	}
	rev := 0
	for i := 0; i < bits; i++ {
		if src&(1<<uint(i)) != 0 {
			rev |= 1 << uint(bits-1-i)
		}
	}
	if rev == src {
		return (src + n/2) % n
	}
	return rev
}

// Name implements Pattern.
func (BitReverse) Name() string { return "bit-reverse" }

// Transpose sends src = (r, c) to (c, r) on a sqrt(n) grid.
type Transpose struct{}

// Dest implements Pattern.
func (Transpose) Dest(src, n int, rng *rand.Rand) int {
	side := 1
	for side*side < n {
		side++
	}
	r, c := src/side, src%side
	d := c*side + r
	if d == src || d >= n {
		return (src + 1) % n
	}
	return d
}

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// ClosedLoop is the Figure-3 workload driver. Create it, reference its
// OnResult from the netsim.Params, Bind it to the built network, and add
// it to the engine via Drive.
type ClosedLoop struct {
	// Load is the target offered load: the fraction of each endpoint's
	// injection bandwidth occupied by message words when the network
	// imposes no waiting.
	Load float64
	// MsgBytes is the fixed message payload size (20 in Figure 3).
	MsgBytes int
	// Pattern picks destinations (Uniform for Figure 3).
	Pattern Pattern
	// Outstanding bounds in-flight messages per endpoint (1 models the
	// processor-stall case).
	Outstanding int
	// Seed drives think times and destinations.
	Seed int64

	// Warmup discards results completing before this cycle.
	Warmup uint64

	net       *netsim.Network
	rng       *rand.Rand
	thinkMean float64
	state     []epState
	measured  []nic.Result
	injected  int
}

type epState struct {
	outstanding int
	think       int
}

// Bind attaches the driver to a built network and registers it with the
// engine. The network's Params.OnResult must have been set to the driver's
// OnResult.
func (c *ClosedLoop) Bind(n *netsim.Network) {
	c.net = n
	c.rng = rand.New(rand.NewSource(c.Seed))
	if c.Outstanding <= 0 {
		c.Outstanding = 1
	}
	if c.Pattern == nil {
		c.Pattern = Uniform{}
	}
	msgWords := float64(n.MessageWords(c.MsgBytes))
	if c.Load >= 1 {
		c.thinkMean = 0
	} else if c.Load > 0 {
		c.thinkMean = msgWords * (1 - c.Load) / c.Load
	} else {
		c.thinkMean = 1e12
	}
	c.state = make([]epState, len(n.Endpoints))
	n.Engine.Add(c)
}

// OnResult is the completion callback to wire into netsim.Params.
func (c *ClosedLoop) OnResult(r nic.Result) {
	src := r.Msg.Src
	c.state[src].outstanding--
	c.state[src].think = c.sampleThink()
	if r.Done >= c.Warmup {
		c.measured = append(c.measured, r)
	}
}

// sampleThink draws a geometric think time with the calibrated mean.
func (c *ClosedLoop) sampleThink() int {
	if c.thinkMean <= 0 {
		return 0
	}
	p := 1 / (1 + c.thinkMean)
	// Geometric via inverse transform on a capped number of trials.
	t := 0
	for c.rng.Float64() >= p {
		t++
		if t > 1<<20 {
			break
		}
	}
	return t
}

// Eval implements clock.Component: issue new messages when endpoints are
// free and their think time has elapsed.
//
//metrovet:shared driver registers via Engine.Add, so it runs in the serialized epilogue after every endpoint has evaluated
//metrovet:truncate rng.Intn(256) yields [0,255], which fits a byte exactly
func (c *ClosedLoop) Eval(cycle uint64) {
	n := len(c.state)
	for e := 0; e < n; e++ {
		s := &c.state[e]
		if s.think > 0 {
			s.think--
			continue
		}
		if s.outstanding >= c.Outstanding {
			continue
		}
		dest := c.Pattern.Dest(e, n, c.rng)
		//metrovet:alloc per-injected-message payload; ownership transfers to the endpoint queue
		payload := make([]byte, c.MsgBytes)
		for i := range payload {
			payload[i] = byte(c.rng.Intn(256))
		}
		c.net.Send(e, dest, payload)
		s.outstanding++
		c.injected++
	}
}

// Point summarizes the measured interval as a load-latency point.
func (c *ClosedLoop) Point() stats.LoadPoint {
	return summarise(c.net, c.Load, c.MsgBytes, c.measured)
}

// Measured returns the raw results gathered after warmup.
func (c *ClosedLoop) Measured() []nic.Result { return c.measured }

// Injected returns the total number of messages issued.
func (c *ClosedLoop) Injected() int { return c.injected }
