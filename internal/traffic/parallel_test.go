package traffic

import (
	"reflect"
	"testing"

	"metro/internal/netsim"
	"metro/internal/nic"
	"metro/internal/stats"
	"metro/internal/topo"
)

// driver is what the two measurement drivers share for the differential.
type driver interface {
	OnResult(nic.Result)
	Bind(*netsim.Network)
	Injected() int
	Measured() []nic.Result
	Point() stats.LoadPoint
}

// diffDriver is the traffic members of the differential family (see
// internal/netsim/differential_test.go): the same driven workload on the
// per-component reference stepper and on the compiled kernel at workers
// {0, 1, 2, 4, 8} must agree on the injection count, on every measured
// result and on the summarized load point, bit for bit. Every run gets
// a fresh driver, with the network built around its OnResult hook.
func diffDriver(t *testing.T, cycles uint64, p netsim.Params, fresh func() driver) {
	run := func(reference bool, workers int) driver {
		d := fresh()
		p := p
		p.Workers, p.OnResult = workers, d.OnResult
		n, err := netsim.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		if reference {
			n.Engine.SetKernel(netsim.NewReference(n))
		}
		d.Bind(n)
		n.Run(cycles)
		return d
	}
	want := run(true, 1)
	if len(want.Measured()) == 0 {
		t.Fatal("run measured no completions; the differential compares nothing")
	}
	for _, workers := range []int{0, 1, 2, 4, 8} {
		got := run(false, workers)
		if got.Injected() != want.Injected() {
			t.Errorf("kernel workers=%d: injected %d, want %d", workers, got.Injected(), want.Injected())
		}
		if !reflect.DeepEqual(got.Measured(), want.Measured()) {
			t.Errorf("kernel workers=%d: measured results diverge from the reference stepper (%d vs %d messages)",
				workers, len(got.Measured()), len(want.Measured()))
		}
		if !reflect.DeepEqual(got.Point(), want.Point()) {
			t.Errorf("kernel workers=%d: load point diverges:\n got %+v\nwant %+v", workers, got.Point(), want.Point())
		}
	}
}

// TestClosedLoopParallelDifferential runs the Figure 3 closed-loop
// workload — the paper's measurement configuration, and the hardest
// equivalence case, because the driver's OnResult hook both mutates
// per-endpoint state and draws think times from its PRNG, so any
// perturbation of completion order changes the entire remaining random
// stream.
func TestClosedLoopParallelDifferential(t *testing.T) {
	cycles := uint64(2000)
	if testing.Short() {
		cycles = 800
	}
	diffDriver(t, cycles, netsim.Params{
		Spec: topo.Figure3(), Width: 8, HeaderWords: 2, DataPipe: 2,
		LinkDelay: 1, FastReclaim: true, Seed: 7, RetryLimit: 1000,
	}, func() driver {
		return &ClosedLoop{Load: 0.85, MsgBytes: 20, Outstanding: 2, Seed: 5, Warmup: 200}
	})
}

// TestOpenLoopParallelDifferential covers the Bernoulli-injection driver
// the same way: its Eval draws from a PRNG whose consumption must not
// depend on worker scheduling.
func TestOpenLoopParallelDifferential(t *testing.T) {
	cycles := uint64(1200)
	if testing.Short() {
		cycles = 500
	}
	diffDriver(t, cycles, netsim.Params{
		Spec: topo.Figure3(), Width: 8, DataPipe: 2, LinkDelay: 1,
		FastReclaim: true, Seed: 13, RetryLimit: 500,
	}, func() driver {
		return &OpenLoop{Load: 0.6, MsgBytes: 12, Seed: 11, Warmup: 100}
	})
}
