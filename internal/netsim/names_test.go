package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"metro/internal/link"
	"metro/internal/topo"
)

// TestNamesPin holds every router and link name Build gives, as one digest
// per network: the preset topologies, a cascade-2 network whose tiers sit
// in three delay-class arenas, and a randomly wired custom spec. Names are
// what fault plans, traces and the kernel's wiring errors print, and links
// derive theirs on demand rather than storing them, so a change to the
// naming scheme or to the order the arenas are walked in fails here. The
// digests were captured from the build that still stored every name.
func TestNamesPin(t *testing.T) {
	custom := topo.Spec{
		Endpoints:     32,
		EndpointLinks: 2,
		Stages: []topo.StageSpec{
			{Inputs: 4, Radix: 2, Dilation: 2},
			{Inputs: 4, Radix: 2, Dilation: 2},
			{Inputs: 8, Radix: 8, Dilation: 1},
		},
		Wiring: topo.WiringRandom,
		Seed:   11,
	}
	for _, tc := range []struct {
		name   string
		p      Params
		digest string
	}{
		{"figure1", Params{Spec: topo.Figure1()}, "423b27d7f575bc9fd497a7d7359dc4a314242ae8898be9626758638943f4c835"},
		{"figure3", Params{Spec: topo.Figure3()}, "f6b6067a0375e19f5abac30bba2696dd41d41797c8934c97b71cce1e8a05d8c4"},
		{"net32", Params{Spec: topo.Table3Network32()}, "0a23c19d2586b05eb4f3c7a96f63833be299b36813e9ca989f3d24901d585e1e"},
		{"net32r8", Params{Spec: topo.Table3Network32Radix8()}, "7ab3a78a4c0525bd41bb034bfab90cb94d8f0f1f81314ab899bed79107ee473d"},
		{"cascade2", Params{Spec: topo.Figure1(), Width: 4, CascadeWidth: 2, StageLinkDelays: []int{2, 1, 3}}, "0c2558f067e7c06d405f09be39a09759f53f350996d1d4a34d1c2cf610b6678f"},
		{"random", Params{Spec: custom, Seed: 5}, "1241329c0e939d97b05b65ea677c3f55768ba389376830c4c87c4ebed49b0922"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := Build(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			h := sha256.New()
			names := 0
			add := func(s string) {
				h.Write([]byte(s))
				h.Write([]byte{'\n'})
				names++
			}
			for s := range n.Routers {
				for _, lanes := range n.Routers[s] {
					for _, r := range lanes {
						add(r.Name())
					}
				}
			}
			n.EachLink(func(l link.Link) { add(l.Name()) })
			got := hex.EncodeToString(h.Sum(nil))
			t.Logf("%d names, digest %s", names, got)
			if got != tc.digest {
				t.Errorf("names digest %s, want %s", got, tc.digest)
			}
		})
	}
}
