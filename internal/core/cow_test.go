package core_test

import (
	"reflect"
	"testing"

	"metro/internal/core"
	"metro/internal/netsim"
	"metro/internal/topo"
)

// settingsMutators writes one field of a router's settings through each
// scan-style mutator; check reports whether the write landed.
var settingsMutators = []struct {
	name  string
	write func(t *testing.T, r *core.Router)
	check func(s core.Settings) bool
}{
	{"ApplySettings", func(t *testing.T, r *core.Router) {
		s := r.Settings()
		s.Swallow &^= 1 << 1
		s.OffPortDrive[1] |= 1 << 2
		if err := r.ApplySettings(s); err != nil {
			t.Fatal(err)
		}
	}, func(s core.Settings) bool { return s.Swallow&(1<<1) == 0 && s.OffPortDrive[1]&(1<<2) != 0 }},
	{"SetForwardEnabled", func(t *testing.T, r *core.Router) { r.SetForwardEnabled(1, false) },
		func(s core.Settings) bool { return s.ForwardEnabled&(1<<1) == 0 }},
	{"SetBackwardEnabled", func(t *testing.T, r *core.Router) { r.SetBackwardEnabled(2, false) },
		func(s core.Settings) bool { return s.BackwardEnabled&(1<<2) == 0 }},
	{"SetFastReclaim", func(t *testing.T, r *core.Router) { r.SetFastReclaim(0, true) },
		func(s core.Settings) bool { return s.FastReclaim&(1<<0) != 0 }},
}

// TestCopyOnWriteIsolation: the routers of a stage share one Shape, so a
// write through any settings mutator must land on the written router alone.
// On a built Figure 3 network and on a cascade-2 network (where the victim
// is one member of a group), every mutator is applied to one router; then
// every other router's Settings and watched-port mask must be what they
// were, and Settings must still hand out a copy the caller can scribble on.
func TestCopyOnWriteIsolation(t *testing.T) {
	for _, net := range []struct {
		name string
		p    netsim.Params
	}{
		{"figure3", netsim.Params{Spec: topo.Figure3(), LinkDelay: 2}},
		{"cascade2", netsim.Params{Spec: topo.Figure1(), Width: 4, CascadeWidth: 2, LinkDelay: 2}},
	} {
		for _, m := range settingsMutators {
			t.Run(net.name+"/"+m.name, func(t *testing.T) {
				n, err := netsim.Build(net.p)
				if err != nil {
					t.Fatal(err)
				}
				defer n.Close()
				col := n.Routers[0][1]
				victim := col[len(col)-1]
				all := lanes(n)
				before := make([]core.Settings, len(all))
				watched := make([]uint64, len(all))
				for i, r := range all {
					before[i], watched[i] = r.Settings(), core.WatchedPorts(r)
				}
				m.write(t, victim)
				if !m.check(victim.Settings()) {
					t.Fatalf("%s did not reach %s: %+v", m.name, victim.Name(), victim.Settings())
				}
				for i, r := range all {
					if r == victim {
						continue
					}
					if got := r.Settings(); !reflect.DeepEqual(got, before[i]) {
						t.Fatalf("%s on %s changed sibling %s's settings:\nbefore %+v\nafter  %+v", m.name, victim.Name(), r.Name(), before[i], got)
					}
					if got := core.WatchedPorts(r); got != watched[i] {
						t.Fatalf("%s on %s moved sibling %s's watched ports %#x -> %#x", m.name, victim.Name(), r.Name(), watched[i], got)
					}
				}
				// A caller's copy is its own: scribbling on it reaches
				// neither the victim nor the stage's shared shape.
				for _, r := range []*core.Router{victim, all[0]} {
					want := r.Settings()
					got := r.Settings()
					for i := range got.TurnDelay {
						got.TurnDelay[i]++
					}
					if again := r.Settings(); !reflect.DeepEqual(again, want) {
						t.Fatalf("writing to a copy from Settings changed %s's settings", r.Name())
					}
				}
				for _, r := range all {
					if err := r.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}
