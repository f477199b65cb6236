package netsim

import (
	"math/rand"
	"testing"

	"metro/internal/nic"
	"metro/internal/topo"
)

// TestSoakRandomTrafficAndFaults is the long-haul robustness check:
// sustained random traffic on the Figure 3 network while links die, ports
// are disabled and re-enabled, and a router is lost — with router
// invariants audited throughout and liveness (completions keep happening)
// asserted per phase.
func TestSoakRandomTrafficAndFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	completed := 0
	delivered := 0
	n, err := Build(Params{
		Spec:          topo.Figure3(),
		Width:         8,
		DataPipe:      1,
		LinkDelay:     1,
		FastReclaim:   true,
		Seed:          67,
		RetryLimit:    800,
		ListenTimeout: 250,
		OnResult: func(r nic.Result) {
			completed++
			if r.Delivered {
				delivered++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	eps := n.Params.Spec.Endpoints

	phaseEnd := map[int]string{
		6000:  "healthy",
		12000: "degraded (links + router dead, ports flapped)",
		18000: "recovered (ports re-enabled)",
	}
	lastCompleted := 0
	audit := func(cycle int) {
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
	for cycle := 0; cycle < 18000; cycle++ {
		// Steady random injection, roughly one message per three cycles.
		if rng.Intn(3) == 0 {
			src := rng.Intn(eps)
			dest := rng.Intn(eps)
			if dest == src {
				dest = (dest + 1) % eps
			}
			n.Send(src, dest, []byte{byte(cycle), byte(src), byte(dest)})
		}
		switch cycle {
		case 6000:
			// Degrade: kill three links and one router, flap some ports.
			n.OutLink(0, 3, 1).Kill()
			n.OutLink(1, 7, 4).Kill()
			n.OutLink(0, 12, 6).Kill()
			n.KillRouter(1, 2)
			n.RouterAt(0, 5).SetBackwardEnabled(0, false)
			n.RouterAt(0, 9).SetBackwardEnabled(3, false)
		case 12000:
			// Recover the flapped ports (the dead hardware stays dead).
			n.RouterAt(0, 5).SetBackwardEnabled(0, true)
			n.RouterAt(0, 9).SetBackwardEnabled(3, true)
		}
		n.Engine.Step()
		if cycle%500 == 499 {
			audit(cycle)
		}
		if label, ok := phaseEnd[cycle]; ok {
			if completed == lastCompleted {
				t.Fatalf("no completions during phase %q", label)
			}
			lastCompleted = completed
		}
	}
	if completed < 2000 {
		t.Fatalf("only %d messages completed in the soak", completed)
	}
	if delivered != completed {
		t.Fatalf("%d of %d messages failed permanently despite multipath redundancy",
			completed-delivered, completed)
	}
	t.Logf("soak: %d messages delivered across healthy/degraded/recovered phases", delivered)
}
