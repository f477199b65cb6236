package netsim

import (
	"math/rand"
	"testing"

	"metro/internal/nic"
	"metro/internal/topo"
)

// TestInvariantsUnderHeavyLoad runs a saturating workload and audits every
// router's internal consistency every cycle.
func TestInvariantsUnderHeavyLoad(t *testing.T) {
	n, err := Build(Params{
		Spec: topo.Figure1(), Width: 8, DataPipe: 2, LinkDelay: 2,
		FastReclaim: true, Seed: 41, RetryLimit: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for cycle := 0; cycle < 4000; cycle++ {
		if cycle%3 == 0 {
			src := rng.Intn(16)
			dest := rng.Intn(16)
			if dest == src {
				dest = (dest + 1) % 16
			}
			n.Send(src, dest, []byte{byte(cycle), byte(src)})
		}
		n.Engine.Step()
		for s := range n.Routers {
			for _, lanes := range n.Routers[s] {
				for _, r := range lanes {
					if err := r.CheckInvariants(); err != nil {
						t.Fatalf("cycle %d: %v", cycle, err)
					}
				}
			}
		}
	}
}

// TestInvariantsEveryCycleCongestedFigure3 saturates the 64-endpoint
// multibutterfly of Figure 3 — two fresh messages injected every cycle,
// far past the network's sustainable load — and audits every router's
// invariants after every single cycle. Congestion is where the teardown
// and reclamation paths (blocked replies, drains, closers) actually run,
// so this is the audit that exercises the clauses the light-load tests
// never reach.
func TestInvariantsEveryCycleCongestedFigure3(t *testing.T) {
	cycles := 3000
	if testing.Short() {
		cycles = 1200
	}
	completed := 0
	n, err := Build(Params{
		Spec: topo.Figure3(), Width: 8, DataPipe: 2, LinkDelay: 1,
		FastReclaim: false, Seed: 71, RetryLimit: 600, ListenTimeout: 200,
		OnResult: func(r nic.Result) { completed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	eps := n.Params.Spec.Endpoints
	for cycle := 0; cycle < cycles; cycle++ {
		for k := 0; k < 2; k++ {
			src := rng.Intn(eps)
			dest := rng.Intn(eps)
			if dest == src {
				dest = (dest + 1) % eps
			}
			n.Send(src, dest, []byte{byte(cycle), byte(src), byte(dest)})
		}
		n.Engine.Step()
		for s := range n.Routers {
			for _, lanes := range n.Routers[s] {
				for _, r := range lanes {
					if err := r.CheckInvariants(); err != nil {
						t.Fatalf("cycle %d: %v", cycle, err)
					}
				}
			}
		}
	}
	if completed == 0 {
		t.Fatal("congested run completed no messages; the load is miscalibrated")
	}
}

// TestInvariantsUnderFaultsAndDetailedMode repeats the audit with dynamic
// faults firing and detailed blocked replies (the more complex teardown
// paths).
func TestInvariantsUnderFaultsAndDetailedMode(t *testing.T) {
	n, err := Build(Params{
		Spec: topo.Figure1(), Width: 8, DataPipe: 1, LinkDelay: 1,
		FastReclaim: false, Seed: 43, RetryLimit: 1000, ListenTimeout: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for cycle := 0; cycle < 4000; cycle++ {
		if cycle%4 == 0 {
			src := rng.Intn(16)
			n.Send(src, (src+1+rng.Intn(15))%16, []byte{1, 2, 3})
		}
		if cycle == 1000 {
			n.OutLink(0, 2, 1).Kill()
		}
		if cycle == 2000 {
			n.KillRouter(1, 4)
		}
		n.Engine.Step()
		for s := range n.Routers {
			for _, lanes := range n.Routers[s] {
				for _, r := range lanes {
					if err := r.CheckInvariants(); err != nil {
						t.Fatalf("cycle %d: %v", cycle, err)
					}
				}
			}
		}
	}
}
