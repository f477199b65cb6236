package netsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"metro/internal/telemetry"
	"metro/internal/topo"
)

// setDetailed puts every forward port of every lane of stage s into
// detailed blocked-reply mode, as a scan CONFIG load of the Table 2
// fast-reclaim register would after construction: the paper's mixed
// mode (Section 5.1, Path Reclamation).
func setDetailed(n *Network, s int) {
	for _, lanes := range n.Routers[s] {
		for _, r := range lanes {
			for fp := range r.Config().Inputs {
				r.SetFastReclaim(fp, false)
			}
		}
	}
}

// hammerDest9 sends one message from every other endpoint to endpoint 9
// and runs until the network is quiet.
func hammerDest9(t *testing.T, n *Network) {
	for src := 0; src < 16; src++ {
		if src != 9 {
			n.Send(src, 9, []byte{byte(src)})
		}
	}
	if !n.RunUntilQuiet(500000) {
		t.Fatal("network did not go quiet")
	}
}

// randomPairs offers two seeded random messages a cycle for 400 cycles.
func randomPairs(t *testing.T, n *Network) {
	rng := rand.New(rand.NewSource(17))
	eps := n.Topo.Spec.Endpoints
	for cycle := 0; cycle < 400; cycle++ {
		for k := 0; k < 2; k++ {
			src := rng.Intn(eps)
			n.Send(src, (src+1+rng.Intn(eps-1))%eps, []byte{byte(cycle), byte(src)})
		}
		n.Engine.Step()
	}
}

// mixedRun builds p with a flight recorder, lets setup configure the
// built network, drives it, and returns the encoded trace followed by
// the result stream, one line per completed message.
func mixedRun(t *testing.T, p Params, setup func(*Network), drive func(*testing.T, *Network)) []byte {
	t.Helper()
	rec := telemetry.New(telemetry.Options{})
	p.Recorder = rec
	n, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if setup != nil {
		setup(n)
	}
	drive(t, n)
	var out bytes.Buffer
	if err := telemetry.Encode(&out, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, r := range n.Results() {
		fmt.Fprintf(&out, "%+v\n", r)
	}
	return out.Bytes()
}

// TestMixedModePin holds two mixed-mode runs, trace and result stream,
// to one digest each: Figure 1 hammering one destination with stage 2
// detailed, and congested Figure 3 random traffic with stage 1 detailed.
// The digests are those the former Params.DetailedStages field produced;
// the per-port settings matched them byte for byte.
func TestMixedModePin(t *testing.T) {
	for _, sc := range []struct {
		name   string
		p      Params
		stage  int
		drive  func(*testing.T, *Network)
		digest string
	}{
		{"fig1-stage2", Params{
			Spec: topo.Figure1(), Width: 8, DataPipe: 1, LinkDelay: 1,
			FastReclaim: true, Seed: 1, MaxActiveSenders: 1, RetryLimit: 500,
		}, 2, hammerDest9, "2cd14069ee3747ef1ae83d75b4a567dac226b5dbeaa71fb1b73bea8d76d21192"},
		{"fig3-stage1", Params{
			Spec: topo.Figure3(), Width: 8, DataPipe: 2, LinkDelay: 1,
			FastReclaim: true, Seed: 71, RetryLimit: 600, ListenTimeout: 200,
		}, 1, randomPairs, "985d0b8be68185620278c7a4bb2f57ec32e46f7c60a193ed40f945b53e80d213"},
	} {
		t.Run(sc.name, func(t *testing.T) {
			got := mixedRun(t, sc.p, func(n *Network) { setDetailed(n, sc.stage) }, sc.drive)
			if bytes.Equal(got, mixedRun(t, sc.p, nil, sc.drive)) {
				t.Fatal("detailed replies at one stage changed nothing")
			}
			sum := sha256.Sum256(got)
			if digest := hex.EncodeToString(sum[:]); digest != sc.digest {
				t.Errorf("digest %s, want %s", digest, sc.digest)
			}
		})
	}
}
