package core_test

import (
	"math/rand"
	"sync"
	"testing"

	"metro/internal/core"
	"metro/internal/netsim"
	"metro/internal/nic"
	"metro/internal/topo"
)

// congestedNetworks are the networks the audit-equivalence tests take
// routers from: Figure 3 under fast reclamation, and the Figure 1 network
// width-cascaded two lanes wide, with two-word headers, under detailed
// blocked replies, so the snapshots hold ports in every state and closers
// in flight.
func congestedNetworks() []netsim.Params {
	return []netsim.Params{
		{Spec: topo.Figure3(), Width: 8, DataPipe: 2, LinkDelay: 1, FastReclaim: true,
			Seed: 71, RetryLimit: 600, ListenTimeout: 200},
		{Spec: topo.Figure1(), Width: 4, HeaderWords: 2, DataPipe: 1, LinkDelay: 1, CascadeWidth: 2,
			Seed: 51, RetryLimit: 600, ListenTimeout: 200},
	}
}

// runCongested builds p, keeps every endpoint's queue deep with random
// traffic, and calls visit after each of the given cycles.
func runCongested(tb testing.TB, p netsim.Params, cycles int, visit func(n *netsim.Network, cycle int)) {
	tb.Helper()
	completed := 0
	p.OnResult = func(nic.Result) { completed++ }
	n, err := netsim.Build(p)
	if err != nil {
		tb.Fatal(err)
	}
	defer n.Close()
	rng := rand.New(rand.NewSource(p.Seed))
	eps := p.Spec.Endpoints
	send := func() {
		src, dest := rng.Intn(eps), rng.Intn(eps-1)
		if dest >= src {
			dest++
		}
		n.Send(src, dest, make([]byte, 1+rng.Intn(24)))
	}
	for i := 0; i < 4*eps; i++ {
		send()
	}
	for cycle := 1; cycle <= cycles; cycle++ {
		n.Engine.Step()
		for ; completed > 0; completed-- {
			send()
		}
		visit(n, cycle)
	}
}

// lanes returns every router lane of n.
func lanes(n *netsim.Network) []*core.Router {
	var out []*core.Router
	for s := range n.Routers {
		for _, lanes := range n.Routers[s] {
			out = append(out, lanes...)
		}
	}
	return out
}

var (
	snapshotsOnce sync.Once
	snapshots     []*core.Router
)

// routerSnapshots returns copies of every router lane of each congested
// network, taken every 150 cycles over 600.
func routerSnapshots(tb testing.TB) []*core.Router {
	snapshotsOnce.Do(func() {
		for _, p := range congestedNetworks() {
			runCongested(tb, p, 600, func(n *netsim.Network, cycle int) {
				if cycle%150 != 0 {
					return
				}
				for _, r := range lanes(n) {
					snapshots = append(snapshots, core.CloneRouter(r))
				}
			})
		}
	})
	if len(snapshots) == 0 {
		tb.Fatal("no router snapshots")
	}
	return snapshots
}

// checkVerdict asserts CheckInvariants passes r exactly when the
// reference clause walk does, and otherwise returns the walk's error.
func checkVerdict(t *testing.T, r *core.Router, what string) {
	t.Helper()
	walk := core.ClauseWalk(r)
	got := r.CheckInvariants()
	if (got == nil) != (walk == nil) || got != nil && got.Error() != walk.Error() {
		t.Fatalf("%s: CheckInvariants returned %v, the clause walk %v", what, got, walk)
	}
}

// interesting are the values the table writes: each side of every bound a
// clause compares against (markers, port counts, region sizes, set counts).
var interesting = []int{-128, -3, -2, -1, 0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 24, 63, 64, 127, 128, 255}

// TestInvariantVerdictTable corrupts one field of every kind the six
// clauses read, on routers snapshotted mid-run, with values on each side
// of every bound, and holds CheckInvariants to the reference clause walk.
func TestInvariantVerdictTable(t *testing.T) {
	snaps := routerSnapshots(t)
	if testing.Short() {
		snaps = snaps[:len(snaps)/4]
	}
	rejected := 0
	for si, snap := range snaps {
		checkVerdict(t, snap, snap.Name())
		if err := snap.CheckInvariants(); err != nil {
			t.Fatalf("snapshot %d (%s) fails its audit: %v", si, snap.Name(), err)
		}
		for _, c := range core.InvariantCorruptions {
			for i := 0; i < 3; i++ {
				for _, v := range interesting {
					r := core.CloneRouter(snap)
					c.Apply(r, i, v)
					checkVerdict(t, r, snap.Name()+": "+c.Name)
					if r.CheckInvariants() != nil {
						rejected++
					}
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no corruption was rejected: the table exercises nothing")
	}
}

// FuzzInvariantVerdict is the open-ended form of the table: any snapshot,
// any corruption kind, any port and value.
func FuzzInvariantVerdict(f *testing.F) {
	for k := range core.InvariantCorruptions {
		f.Add(uint16(k*7), uint8(k), uint8(k), int16(-1))
		f.Add(uint16(k*11), uint8(k), uint8(1), int16(k))
		// Past every port bound and the width of the port masks.
		f.Add(uint16(k*13), uint8(k), uint8(2), int16(64))
	}
	f.Fuzz(func(t *testing.T, snap uint16, kind, i uint8, v int16) {
		snaps := routerSnapshots(t)
		c := core.InvariantCorruptions[int(kind)%len(core.InvariantCorruptions)]
		r := core.CloneRouter(snaps[int(snap)%len(snaps)])
		c.Apply(r, int(i), int(v))
		checkVerdict(t, r, c.Name)
	})
}

// BenchmarkCheckInvariants audits every router of a congested Figure 3
// network once per op, as metrofuzz's primary leg does after every cycle.
func BenchmarkCheckInvariants(b *testing.B) {
	var routers []*core.Router
	runCongested(b, congestedNetworks()[0], 2000, func(n *netsim.Network, cycle int) {
		if cycle == 2000 {
			routers = lanes(n)
		}
	})
	b.ReportAllocs()
	for b.Loop() {
		for _, r := range routers {
			if err := r.CheckInvariants(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
