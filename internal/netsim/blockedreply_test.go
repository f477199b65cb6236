package netsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"metro/internal/telemetry"
	"metro/internal/topo"
	"metro/internal/word"
)

// TestBlockedReplyPin holds congested networks in detailed reclamation,
// where every blocked connection answers STATUS, its checksum words and
// DROP back toward the source, to one digest each of the encoded trace and
// the result stream. Figure 3 runs at the widths its 8x8 routers accept
// from {1, 2, 4, 8, 16}: 4, 8 and 16, whose checksums take 2, 1 and 1
// words. The narrower widths need fewer outputs a router: Figure 1's 4x4
// routers carry width 2 (4 checksum words) and a butterfly of 2x2 routers
// width 1 (8), so the reply runs at every length a width gives it. Each
// runs at data pipes of 1 and 3 stages.
func TestBlockedReplyPin(t *testing.T) {
	butterfly := topo.Spec{Endpoints: 16, EndpointLinks: 1, Wiring: topo.WiringInterleave}
	for range 4 {
		butterfly.Stages = append(butterfly.Stages, topo.StageSpec{Inputs: 2, Radix: 2, Dilation: 1})
	}
	for _, tc := range []struct {
		net    string
		spec   topo.Spec
		width  int
		dp     int
		digest string
	}{
		{"butterfly", butterfly, 1, 1, "34dbe758dce41e48b03c24b3f224725f8f2d75dedfba8831f6ab7b88825a1a33"},
		{"butterfly", butterfly, 1, 3, "c5eca2e8e99959c97f4a5e0c4fe06f73b754ed9aadf5897c4fd03a9b1a703e68"},
		{"fig1", topo.Figure1(), 2, 1, "1f722077d08039c6101569a3862ec6c38359d71294388c9267b2f0da8b68cb91"},
		{"fig1", topo.Figure1(), 2, 3, "3a06aad262f2e12c29ef86c345985bdbf9f429768e5249793acc2f5b609883a2"},
		{"fig3", topo.Figure3(), 4, 1, "95ff30012b8869a1a251f49c3f81b84db522a2f82709db13fc504a7284ae0c03"},
		{"fig3", topo.Figure3(), 4, 3, "357d64cf0ff706fb92b0d730ace4d087922e3477ac299cb81f962eb9d630075c"},
		{"fig3", topo.Figure3(), 8, 1, "ace91794b0cc5f4f3c2d4f1a451161e1ba1e0c438f023d30739cd32963f00af0"},
		{"fig3", topo.Figure3(), 8, 3, "a2a99da67c02cd623ea0041c2cdceb5a01633ca361480ea35ed193161c75d980"},
		{"fig3", topo.Figure3(), 16, 1, "dd53b237e556154ad28dc32965092578d29a06ccdeb34a32929210f23b95712f"},
		{"fig3", topo.Figure3(), 16, 3, "740203dc78c4735cf28de0ca6dcbf00b6c8100a6a8dbfdb75d313f3a442f9dd0"},
	} {
		t.Run(fmt.Sprintf("%s-w%d-dp%d", tc.net, tc.width, tc.dp), func(t *testing.T) {
			rec := telemetry.New(telemetry.Options{})
			n, err := Build(Params{
				Spec: tc.spec, Width: tc.width, DataPipe: tc.dp, LinkDelay: 1,
				FastReclaim: false, Seed: 71, RetryLimit: 600, ListenTimeout: 200,
				Recorder: rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			randomPairs(t, n)
			trace := rec.Snapshot()
			blocked := 0
			for _, e := range trace.Events {
				if e.Kind == telemetry.EvConnBlockedDetailed {
					blocked++
				}
			}
			if blocked == 0 {
				t.Fatal("no detailed blocked reply: the run exercises nothing")
			}
			var out bytes.Buffer
			if err := telemetry.Encode(&out, trace); err != nil {
				t.Fatal(err)
			}
			for _, r := range n.Results() {
				fmt.Fprintf(&out, "%+v\n", r)
			}
			t.Logf("%d detailed blocks, %d checksum words a reply", blocked, word.ChecksumWords(n.Routers[0][0][0].Width()))
			sum := sha256.Sum256(out.Bytes())
			if digest := hex.EncodeToString(sum[:]); digest != tc.digest {
				t.Errorf("digest %s, want %s", digest, tc.digest)
			}
		})
	}
}
