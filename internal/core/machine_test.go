package core_test

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"metro/internal/core"
	"metro/internal/netsim"
	"metro/internal/topo"
)

// TestForwardPortMachine steps whole networks and reads every forward
// port's state before and after each Engine.Step: each change must be a
// row of core.ForwardPortMachine, and each row must be seen. A change
// with no row is reported where it is first seen. The networks
// cover both reclamation modes, a deep data pipe, a setup header, a
// responder's replies, a router killed mid-run and a killed link.
func TestForwardPortMachine(t *testing.T) {
	seen := map[[2]core.PortState]bool{}
	fig3 := netsim.Params{Spec: topo.Figure3(), Width: 8, Seed: 3, Workers: 1,
		RetryLimit: 40, ListenTimeout: 60}
	fig1 := netsim.Params{Spec: topo.Figure1(), Width: 8, Seed: 4, Workers: 1,
		RetryLimit: 40, ListenTimeout: 60,
		Responder:      func(dest int, req []byte) []byte { return append(req, byte(dest)) },
		ResponderDelay: func(dest int, _ []byte) int { return dest * 5 }}
	for _, tc := range []struct {
		name   string
		p      netsim.Params
		change func(p *netsim.Params)
	}{
		{"fig3-fast", fig3, func(p *netsim.Params) { p.FastReclaim = true }},
		{"fig3-detailed-dp3", fig3, func(p *netsim.Params) { p.DataPipe = 3 }},
		{"fig3-hw4-fast", fig3, func(p *netsim.Params) { p.HeaderWords = 4; p.FastReclaim = true }},
		{"fig1-responder-fast", fig1, func(p *netsim.Params) { p.FastReclaim = true }},
		{"fig1-responder-detailed", fig1, func(p *netsim.Params) {}},
	} {
		tc.change(&tc.p)
		n, err := netsim.Build(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		var routers []*core.Router
		for _, stage := range n.Routers {
			for _, lanes := range stage {
				routers = append(routers, lanes...)
			}
		}
		rng := rand.New(rand.NewSource(1))
		eps := tc.p.Spec.Endpoints
		before := make([][]core.PortState, len(routers))
		for cycle := range 400 {
			if cycle == 150 {
				n.KillRouter(0, 0)
			}
			if cycle >= 100 && cycle%10 == 0 {
				n.InjectLink(cycle/10%eps, 0).Kill()
			}
			if cycle < 300 {
				for range 2 {
					src := rng.Intn(eps)
					n.Send(src, (src+1+rng.Intn(eps-1))%eps, []byte{byte(cycle), byte(src)})
				}
			}
			for i, r := range routers {
				before[i] = core.PortStates(r)
			}
			n.Engine.Step()
			for i, r := range routers {
				for fp, to := range core.PortStates(r) {
					from := before[i][fp]
					if from == to {
						continue
					}
					key := [2]core.PortState{from, to}
					if _, ok := core.ForwardPortMachine[from][to]; !ok && !seen[key] {
						t.Errorf("%s cycle %d: %s fp%d went %v -> %v, which the table has no row for",
							tc.name, cycle, r.Name(), fp, from, to)
					}
					seen[key] = true
				}
			}
		}
		n.Close()
	}
	for _, from := range slices.Sorted(maps.Keys(core.ForwardPortMachine)) {
		for _, to := range slices.Sorted(maps.Keys(core.ForwardPortMachine[from])) {
			if !seen[[2]core.PortState{from, to}] {
				t.Errorf("row %v -> %v (%s) never seen", from, to, core.ForwardPortMachine[from][to])
			}
		}
	}
}
