package nic_test

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"metro/internal/netsim"
	"metro/internal/nic"
	"metro/internal/topo"
)

// unreached is the rows of nic.SenderMachine and nic.ReceiverMachine that
// no network reaches, each with the reason.
var unreached = map[string]string{
	"IDLE -> REPLY": "a message carries its checksum words before its TURN, so no receiver's first word is a TURN",
}

// TestLaneMachines steps whole networks and reads every endpoint's sender
// and receiver states before and after each Engine.Step: each change must
// be a row of nic.SenderMachine or nic.ReceiverMachine, and each row must
// be seen or be in unreached. The subtests sender and receiver report each
// table's verdict.
func TestLaneMachines(t *testing.T) {
	send, recv := map[[2]nic.SenderState]bool{}, map[[2]nic.ReceiverState]bool{}
	var sendBad, recvBad []string
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
		// The link delay outlasts CloseGap: an attempt can meet the BCB
		// that blocked the last one.
		{"fig3-fast-vtd3", fig3, func(p *netsim.Params) { p.FastReclaim = true; p.LinkDelay = 3 }},
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
		rng := rand.New(rand.NewSource(1))
		eps := tc.p.Spec.Endpoints
		sb, rb := make([][]nic.SenderState, eps), make([][]nic.ReceiverState, eps)
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
			for e, ep := range n.Endpoints {
				sb[e], rb[e] = nic.LaneStates(ep)
			}
			n.Engine.Step()
			for e, ep := range n.Endpoints {
				sa, ra := nic.LaneStates(ep)
				at := fmt.Sprintf("%s cycle %d: endpoint %d: ", tc.name, cycle, e)
				if bad := check(nic.SenderMachine, send, "sender", sb[e], sa); bad != "" {
					sendBad = append(sendBad, at+bad)
				}
				if bad := check(nic.ReceiverMachine, recv, "receiver", rb[e], ra); bad != "" {
					recvBad = append(recvBad, at+bad)
				}
			}
		}
		n.Close()
	}
	t.Run("sender", func(t *testing.T) { report(t, nic.SenderMachine, send, sendBad) })
	t.Run("receiver", func(t *testing.T) { report(t, nic.ReceiverMachine, recv, recvBad) })
}

// check marks each lane's change from before to after seen, and
// describes the first sighting of each change that is not a row of table.
func check[S comparable](table map[S]map[S]string, seen map[[2]S]bool, role string, before, after []S) (bad string) {
	for i, from := range before {
		if to := after[i]; to != from {
			key := [2]S{from, to}
			if _, ok := table[from][to]; !ok && !seen[key] {
				bad += fmt.Sprintf("%s %d went %v -> %v, which the table has no row for; ", role, i, from, to)
			}
			seen[key] = true
		}
	}
	return bad
}

// report fails on each change in bad, and on each row of table neither
// seen nor named in unreached.
func report[S cmp.Ordered](t *testing.T, table map[S]map[S]string, seen map[[2]S]bool, bad []string) {
	t.Helper()
	for _, b := range bad {
		t.Error(b)
	}
	for _, from := range slices.Sorted(maps.Keys(table)) {
		for _, to := range slices.Sorted(maps.Keys(table[from])) {
			if key := fmt.Sprint(from, " -> ", to); !seen[[2]S{from, to}] && unreached[key] == "" {
				t.Errorf("row %s (%s) never seen", key, table[from][to])
			}
		}
	}
}
