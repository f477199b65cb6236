package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"testing"

	"metro/internal/link"
	"metro/internal/topo"
)

// TestWiringPin holds every wire of a network, as one digest per network:
// the name of each link (which spells both of its ends) and the path count
// of a fixed sample of source-destination pairs. It uses only API that
// does not depend on how the topology stores its wiring, so a change to
// that storage must leave these digests alone. The random specs are wired
// at two seeds to cover the shuffle.
func TestWiringPin(t *testing.T) {
	scale, err := topo.Scale(1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	random := func(seed int64) topo.Spec {
		return topo.Spec{
			Endpoints:     64,
			EndpointLinks: 2,
			Stages: []topo.StageSpec{
				{Inputs: 4, Radix: 2, Dilation: 2},
				{Inputs: 8, Radix: 4, Dilation: 2},
				{Inputs: 8, Radix: 8, Dilation: 1},
			},
			Wiring: topo.WiringRandom,
			Seed:   seed,
		}
	}
	for _, tc := range []struct {
		name   string
		spec   topo.Spec
		digest string
	}{
		{"figure1", topo.Figure1(), "3ef943249d7cf5c55c3703559be18f07d3621f599cf9758802ac2e6c30a18e29"},
		{"figure3", topo.Figure3(), "3aa960682f60ed968ff7ddf4d553e6a129a3517d768694396d4bf097410849a4"},
		{"net32", topo.Table3Network32(), "b47290299cefd0587ce96f0c64c41a313ab5987c0a1d21b87f3314339fd3dc27"},
		{"net32r8", topo.Table3Network32Radix8(), "6e661781af6a7d9bc2443521310f449239b35af6e27ec27e7d69964f807efbf9"},
		{"scale1k", scale, "d1d816c39870b6a503bd759b30d6a7ba5dfe87fb74b9c8f5c3c28e64cb63b7af"},
		{"random3", random(3), "b22bfdecac79c7f6753d571751f45e759596fbd2e2708d1f10336950d4588728"},
		{"random41", random(41), "a8507e382aa25c877f02108139beacbf5d26fc35dc8230fd9abff9d9af7c7b7b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := Build(Params{Spec: tc.spec})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			h := sha256.New()
			links := 0
			n.EachLink(func(l link.Link) {
				h.Write([]byte(l.Name()))
				h.Write([]byte{'\n'})
				links++
			})
			// A fixed stride walks the pairs, so every network samples
			// sources and destinations across its whole range.
			e := tc.spec.Endpoints
			var buf []byte
			for i := 0; i < 97; i++ {
				src, dest := (i*37)%e, (i*61+5)%e
				buf = strconv.AppendInt(buf[:0], int64(n.Topo.PathCount(src, dest)), 10)
				h.Write(append(buf, '\n'))
			}
			got := hex.EncodeToString(h.Sum(nil))
			t.Logf("%d links, digest %s", links, got)
			if got != tc.digest {
				t.Errorf("wiring digest %s, want %s", got, tc.digest)
			}
		})
	}
}

// TestHeldEndsMatchLinks holds every end a unit keeps to the link it
// belongs to: each router port's and endpoint lane's end must read the
// register its link carries toward that side and stage into the link's
// other register, exactly as the link's own A or B end does, and every
// end of every link must be held exactly once. A forward port and a
// delivery lane hold B ends, a backward port and an injection lane A ends.
func TestHeldEndsMatchLinks(t *testing.T) {
	scale, err := topo.Scale(1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"figure3", Params{Spec: topo.Figure3()}},
		{"scale1k", Params{Spec: scale}},
		{"cascade2", Params{Spec: topo.Figure1(), Width: 4, CascadeWidth: 2, StageLinkDelays: []int{2, 1, 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := Build(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			own := func(l link.Link, atA bool) link.End {
				if atA {
					return l.A()
				}
				return l.B()
			}
			type register struct {
				a *link.Arena
				r int
			}
			type side struct {
				l    link.Link
				atA  bool
				held bool
			}
			sides := map[register]*side{}
			n.EachLink(func(l link.Link) {
				end := l.A()
				a, _ := end.Input()
				ab, ba := l.Registers()
				sides[register{a, ba}] = &side{l: l, atA: true}
				sides[register{a, ab}] = &side{l: l, atA: false}
			})
			held := 0
			check := func(who string, end link.End, atA bool) {
				t.Helper()
				if end == (link.End{}) {
					return // an unattached port
				}
				a, r := end.Input()
				s := sides[register{a, r}]
				switch {
				case s == nil:
					t.Fatalf("%s reads register %d, which no link of the network carries", who, r)
				case s.atA != atA:
					t.Fatalf("%s holds the wrong end of link %s (A: %v, want %v)", who, s.l.Name(), s.atA, atA)
				case end != own(s.l, atA):
					t.Fatalf("%s holds an end of link %s that reads its register but differs from the link's own: %+v, want %+v", who, s.l.Name(), end, own(s.l, atA))
				case s.held:
					t.Fatalf("%s holds end A=%v of link %s, which another unit holds too", who, s.atA, s.l.Name())
				}
				s.held = true
				held++
			}
			for s := range n.Routers {
				for j := range n.Routers[s] {
					for lane, r := range n.Routers[s][j] {
						for fp := 0; fp < r.Config().Inputs; fp++ {
							check(fmt.Sprintf("router s%d.%d lane %d forward port %d", s, j, lane, fp), r.ForwardLink(fp), false)
						}
						for bp := 0; bp < r.Config().Outputs; bp++ {
							check(fmt.Sprintf("router s%d.%d lane %d backward port %d", s, j, lane, bp), r.BackwardLink(bp), true)
						}
					}
				}
			}
			injects := tc.p.Spec.EndpointLinks * n.Params.CascadeWidth
			for e, ep := range n.Endpoints {
				i := 0
				ep.Ends(func(end link.End) {
					check(fmt.Sprintf("endpoint %d lane end %d", e, i), end, i < injects)
					i++
				})
			}
			if held != len(sides) {
				t.Fatalf("units hold %d link ends, the network's links have %d", held, len(sides))
			}
			t.Logf("%d ends checked", held)
		})
	}
}
