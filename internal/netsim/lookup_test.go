package netsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"metro/internal/telemetry"
	"metro/internal/topo"
	"metro/internal/word"
)

// TestLinkLookupPin holds what the network's link lookups reach, as one
// digest per network and worker count: the cascade-2 preset of
// TestNamesPin, whose three tiers sit in three delay-class arenas, and
// Figure 3. Under seeded random traffic it kills and later revives an
// OutLink, kills a stage-1 router with KillRouter, and installs counting
// corruptors on an InjectLink (both directions) and on the last lane of a
// stage-1 output wire found by tierLink (lane 1 of the cascade-2 network).
// The digest covers the encoded trace, the result stream and the
// corruptor call counts, so a lookup that finds another wire, or a fault
// that reaches a reader differently, fails here. The digests were captured
// from the build whose arenas still kept a table of links and an owner
// entry per register.
func TestLinkLookupPin(t *testing.T) {
	for _, tc := range []struct {
		name   string
		p      Params
		digest string
	}{
		{"cascade2", Params{
			Spec: topo.Figure1(), Width: 4, CascadeWidth: 2, StageLinkDelays: []int{2, 1, 3},
			DataPipe: 2, Seed: 29, RetryLimit: 400, ListenTimeout: 150,
		}, "45f2fc896b58f05ab2cfcf249c45eaa7d14f9d84ee1545fb41def5df926175f7"},
		{"figure3", Params{
			Spec: topo.Figure3(), Width: 8, DataPipe: 2, LinkDelay: 1,
			Seed: 71, RetryLimit: 600, ListenTimeout: 200,
		}, "c3fc5331dfb97599375aca56dced06ea5e936c907473664961dca2d638895063"},
	} {
		for _, workers := range []int{1, 2} {
			t.Run(tc.name+"/w"+strconv.Itoa(workers), func(t *testing.T) {
				p := tc.p
				p.Workers = workers
				got := lookupDigest(t, p)
				if got != tc.digest {
					t.Errorf("lookup digest %s, want %s", got, tc.digest)
				}
			})
		}
	}
}

// lookupDigest runs p under the lookup pin's fault script and returns the
// digest of its trace, results and corruptor call counts.
func lookupDigest(t *testing.T, p Params) string {
	t.Helper()
	rec := telemetry.New(telemetry.Options{Capacity: 1 << 20})
	p.Recorder = rec
	n, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c := p.CascadeWidth
	if c == 0 {
		c = 1
	}
	// One counter per corrupted register: each has a single reader, so the
	// counts are race-free at any worker count.
	var injAB, injBA, lane int
	counting := func(calls *int) func(word.Word) word.Word {
		return func(w word.Word) word.Word {
			*calls++
			if w.Kind == word.Data && *calls%3 == 0 {
				w.Payload ^= 1
			}
			return w
		}
	}
	rng := rand.New(rand.NewSource(int64(p.Seed) + 7))
	eps := p.Spec.Endpoints
	for cycle := 0; cycle < 700; cycle++ {
		switch cycle {
		case 40:
			n.InjectLink(3, p.Spec.EndpointLinks-1).SetCorruptor(counting(&injAB), counting(&injBA))
		case 60:
			n.tierLink(2, 1, c-1).SetCorruptor(counting(&lane), nil)
		case 100:
			n.OutLink(0, 1, 1).Kill()
		case 150:
			n.KillRouter(1, 0)
		case 250:
			n.OutLink(0, 1, 1).Revive()
		}
		if cycle < 400 {
			src := rng.Intn(eps)
			n.Send(src, (src+1+rng.Intn(eps-1))%eps, []byte{byte(cycle), byte(src), byte(rng.Intn(256))})
		}
		n.Engine.Step()
	}
	if injAB == 0 || injBA == 0 || lane == 0 {
		t.Fatalf("corruptor calls %d, %d, %d: a corrupted wire carried nothing", injAB, injBA, lane)
	}
	var out bytes.Buffer
	if err := telemetry.Encode(&out, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, r := range n.Results() {
		fmt.Fprintf(&out, "%+v\n", r)
	}
	fmt.Fprintf(&out, "calls %d %d %d\n", injAB, injBA, lane)
	t.Logf("%d results, corruptor calls %d, %d, %d", len(n.Results()), injAB, injBA, lane)
	sum := sha256.Sum256(out.Bytes())
	return hex.EncodeToString(sum[:])
}
