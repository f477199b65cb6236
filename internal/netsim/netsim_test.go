package netsim

import (
	"bytes"
	"fmt"
	"testing"

	"metro/internal/link"

	"metro/internal/topo"
)

func buildFig1(t *testing.T, mutate func(*Params)) *Network {
	t.Helper()
	p := Params{
		Spec:        topo.Figure1(),
		Width:       8,
		DataPipe:    1,
		LinkDelay:   1,
		FastReclaim: true,
		Seed:        1,
	}
	if mutate != nil {
		mutate(&p)
	}
	n, err := Build(p)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

func TestSingleMessageDelivery(t *testing.T) {
	var got []byte
	intact := false
	n := buildFig1(t, func(p *Params) {
		p.OnDeliver = func(dest int, payload []byte, ok bool) {
			if dest == 11 {
				got = append([]byte(nil), payload...)
				intact = ok
			}
		}
	})
	payload := []byte("metro routing!")
	n.Send(2, 11, payload)
	if !n.RunUntilQuiet(2000) {
		t.Fatal("network did not go quiet")
	}
	res := n.Results()
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1", len(res))
	}
	r := res[0]
	if !r.Delivered {
		t.Fatalf("message not delivered: %+v", r)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: %q != %q", got, payload)
	}
	if !intact {
		t.Fatal("destination saw checksum mismatch")
	}
	if r.Retries != 0 {
		t.Fatalf("unloaded network needed %d retries", r.Retries)
	}
	if r.Done <= r.Injected {
		t.Fatalf("nonsensical latency: injected %d done %d", r.Injected, r.Done)
	}
	if r.SuspectStage != -1 {
		t.Fatalf("healthy network flagged stage %d", r.SuspectStage)
	}
}

func TestAllPairsDelivery(t *testing.T) {
	n := buildFig1(t, nil)
	want := 0
	for src := 0; src < 16; src++ {
		for dest := 0; dest < 16; dest++ {
			if src == dest {
				continue
			}
			n.Send(src, dest, []byte{byte(src), byte(dest)})
			want++
		}
	}
	if !n.RunUntilQuiet(200000) {
		t.Fatal("network did not go quiet")
	}
	res := n.Results()
	if len(res) != want {
		t.Fatalf("results = %d, want %d", len(res), want)
	}
	for _, r := range res {
		if !r.Delivered {
			t.Fatalf("message %d (%d->%d) undelivered after %d retries",
				r.Msg.ID, r.Msg.Src, r.Msg.Dest, r.Retries)
		}
	}
}

func TestRequestReply(t *testing.T) {
	n := buildFig1(t, func(p *Params) {
		p.Responder = func(dest int, payload []byte) []byte {
			return append([]byte(fmt.Sprintf("node%d:", dest)), payload...)
		}
	})
	n.Send(0, 7, []byte("read 0x40"))
	if !n.RunUntilQuiet(2000) {
		t.Fatal("network did not go quiet")
	}
	res := n.Results()
	if len(res) != 1 || !res[0].Delivered {
		t.Fatalf("request failed: %+v", res)
	}
	if want := "node7:read 0x40"; string(res[0].Reply) != want {
		t.Fatalf("reply = %q, want %q", res[0].Reply, want)
	}
}

func TestContentionRetriesAndDelivers(t *testing.T) {
	// Every endpoint hammers the same destination: connections must block
	// and retry, yet all messages eventually deliver (source-responsible
	// reliability under congestion).
	for _, fast := range []bool{true, false} {
		n := buildFig1(t, func(p *Params) {
			p.FastReclaim = fast
			p.MaxActiveSenders = 1
			p.RetryLimit = 500
		})
		want := 0
		for src := 0; src < 16; src++ {
			if src == 5 {
				continue
			}
			n.Send(src, 5, []byte{byte(src)})
			want++
		}
		if !n.RunUntilQuiet(500000) {
			t.Fatalf("fast=%v: network did not go quiet", fast)
		}
		res := n.Results()
		if len(res) != want {
			t.Fatalf("fast=%v: results = %d, want %d", fast, len(res), want)
		}
		retries := 0
		for _, r := range res {
			if !r.Delivered {
				t.Fatalf("fast=%v: message %d->%d undelivered (%+v)", fast, r.Msg.Src, r.Msg.Dest, r)
			}
			retries += r.Retries
		}
		if retries == 0 {
			t.Errorf("fast=%v: hotspot produced no retries — contention model suspect", fast)
		}
		for _, r := range res {
			if fast && r.BlockedDetailed > 0 {
				t.Errorf("fast=%v: detailed block reported in fast mode: %+v", fast, r)
			}
			if !fast && r.BlockedFast > 0 {
				t.Errorf("fast=%v: BCB block reported in detailed mode: %+v", fast, r)
			}
		}
	}
}

func TestUnloadedLatencyFigure3Config(t *testing.T) {
	// Figure 3's network: 3 stages of radix-4 routers, 8-bit channels.
	// The paper reports 28 cycles unloaded from injection to
	// acknowledgment receipt for 20-byte messages; our protocol carries a
	// slightly different ack structure, so we check the same order of
	// magnitude and record the exact number in EXPERIMENTS.md.
	p := Params{
		Spec:        topo.Figure3(),
		Width:       8,
		DataPipe:    1,
		LinkDelay:   1,
		FastReclaim: true,
		Seed:        7,
	}
	n, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	n.Send(0, 63, make([]byte, 20))
	if !n.RunUntilQuiet(2000) {
		t.Fatal("network did not go quiet")
	}
	res := n.Results()
	if len(res) != 1 || !res[0].Delivered {
		t.Fatalf("message undelivered: %+v", res)
	}
	lat := res[0].Done - res[0].Injected
	if lat < 25 || lat > 60 {
		t.Fatalf("unloaded 20-byte latency = %d cycles, expected 25..60", lat)
	}
	t.Logf("unloaded Figure-3 latency: %d cycles (paper: 28)", lat)
}

func TestHeaderWordsModes(t *testing.T) {
	// The same traffic delivers under hw=0 (bit stripping) and hw=1,2
	// (pipelined setup consuming whole words).
	for _, hw := range []int{0, 1, 2} {
		n := buildFig1(t, func(p *Params) { p.HeaderWords = hw })
		for src := 0; src < 16; src += 3 {
			n.Send(src, (src+5)%16, []byte("hdr test"))
		}
		if !n.RunUntilQuiet(50000) {
			t.Fatalf("hw=%d: network did not go quiet", hw)
		}
		for _, r := range n.Results() {
			if !r.Delivered {
				t.Fatalf("hw=%d: %d->%d undelivered: %+v", hw, r.Msg.Src, r.Msg.Dest, r)
			}
		}
	}
}

func TestDeepPipesAndLongWires(t *testing.T) {
	for _, tc := range []struct{ dp, vtd int }{{2, 1}, {1, 3}, {3, 2}} {
		n := buildFig1(t, func(p *Params) {
			p.DataPipe = tc.dp
			p.LinkDelay = tc.vtd
		})
		n.Send(3, 12, []byte("pipeline"))
		n.Send(12, 3, []byte("pipeline"))
		if !n.RunUntilQuiet(5000) {
			t.Fatalf("dp=%d vtd=%d: network did not go quiet", tc.dp, tc.vtd)
		}
		for _, r := range n.Results() {
			if !r.Delivered {
				t.Fatalf("dp=%d vtd=%d: undelivered: %+v", tc.dp, tc.vtd, r)
			}
		}
	}
}

func TestNarrowChannelWidth(t *testing.T) {
	// w=4 nibble channels (METROJR): checksums split across two words.
	n := buildFig1(t, func(p *Params) { p.Width = 4 })
	n.Send(1, 14, []byte("nibbles work"))
	if !n.RunUntilQuiet(5000) {
		t.Fatal("network did not go quiet")
	}
	res := n.Results()
	if len(res) != 1 || !res[0].Delivered {
		t.Fatalf("w=4 delivery failed: %+v", res)
	}
}

func TestLatencyScalesWithVTD(t *testing.T) {
	lat := func(vtd int) uint64 {
		n := buildFig1(t, func(p *Params) { p.LinkDelay = vtd })
		n.Send(0, 15, make([]byte, 8))
		if !n.RunUntilQuiet(5000) {
			t.Fatal("network did not go quiet")
		}
		r := n.Results()[0]
		if !r.Delivered {
			t.Fatal("undelivered")
		}
		return r.Done - r.Injected
	}
	l1, l3 := lat(1), lat(3)
	if l3 <= l1 {
		t.Fatalf("latency did not grow with wire delay: vtd1=%d vtd3=%d", l1, l3)
	}
	// Round trip crosses 4 links each way: 2 extra stages per link, 8
	// links total minimum growth 2*8 = 16.
	if l3-l1 < 16 {
		t.Fatalf("latency growth %d too small for 2 extra pipeline stages on each of 8 link crossings", l3-l1)
	}
}

func TestMessageWords(t *testing.T) {
	n := buildFig1(t, nil)
	// Figure 1 header: 1+1+2 route bits = 4 bits -> 1 word at w=8;
	// 20 payload + 1 cksum + 1 turn = 23.
	if got := n.MessageWords(20); got != 23 {
		t.Fatalf("MessageWords(20) = %d, want 23", got)
	}
}

func TestResponderDelayHoldsConnection(t *testing.T) {
	// The destination stalls 30 cycles before its reply (a memory access);
	// the connection is held open with DATA-IDLE and the reply still
	// arrives intact, costing ~30 extra cycles of latency.
	latency := func(delay int) uint64 {
		n := buildFig1(t, func(p *Params) {
			p.Responder = func(dest int, payload []byte) []byte { return []byte{0xAA} }
			p.ResponderDelay = func(dest int, payload []byte) int { return delay }
		})
		n.Send(0, 9, []byte("read"))
		if !n.RunUntilQuiet(5000) {
			t.Fatal("network did not go quiet")
		}
		r := n.Results()[0]
		if !r.Delivered || len(r.Reply) != 1 || r.Reply[0] != 0xAA {
			t.Fatalf("delayed reply failed: %+v", r)
		}
		return r.Done - r.Injected
	}
	l0, l30 := latency(0), latency(30)
	if l30-l0 != 30 {
		t.Fatalf("responder delay cost %d cycles, want exactly 30", l30-l0)
	}
}

// TestMixedReclamationMode reproduces the paper's dynamic tradeoff: with
// detailed replies enabled only on the final stage's ports, blocks there
// return stage-identifying status replies while blocks at earlier stages
// recover via the fast BCB.
func TestMixedReclamationMode(t *testing.T) {
	n := buildFig1(t, func(p *Params) {
		p.FastReclaim = true
		p.MaxActiveSenders = 1
		p.RetryLimit = 500
	})
	setDetailed(n, 2)
	// Hammer one destination: final-stage delivery contention guarantees
	// detailed blocks at stage 2, while earlier-stage contention stays
	// fast.
	hammerDest9(t, n)
	res := n.Results()
	if len(res) != 15 {
		t.Fatalf("completed %d of 15", len(res))
	}
	detailed, detailedAtFinal := 0, 0
	for _, r := range res {
		if !r.Delivered {
			t.Fatalf("undelivered: %+v", r)
		}
		detailed += r.BlockedDetailed
		if r.LastBlockedStage == 2 {
			detailedAtFinal++
		}
	}
	if detailed == 0 {
		t.Fatal("no detailed blocks observed at the selected stage")
	}
	if detailedAtFinal == 0 {
		t.Fatal("detailed replies did not identify the final stage")
	}
	for _, r := range res {
		if r.LastBlockedStage >= 0 && r.LastBlockedStage != 2 {
			t.Fatalf("detailed block reported at stage %d, only stage 2 is in detailed mode", r.LastBlockedStage)
		}
	}
}

func TestNetworkAccessors(t *testing.T) {
	n := buildFig1(t, nil)
	if n.RouterAt(1, 3) == nil {
		t.Fatal("RouterAt nil")
	}
	if n.InjectLink(5, 1) == nil {
		t.Fatal("InjectLink nil")
	}
	count := 0
	n.EachLink(func(l *link.Link) { count++ })
	if count != 128 {
		t.Fatalf("EachLink visited %d links, want 128", count)
	}
	// Every wire of a width-cascaded network is CascadeWidth physical
	// links, and EachLink must visit each lane, not lane 0 only.
	wide, err := Build(Params{Spec: topo.Figure1(), Width: 4, CascadeWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	count = 0
	wide.EachLink(func(l *link.Link) { count++ })
	if count != 256 {
		t.Fatalf("EachLink visited %d links of the cascade-2 network, want 256", count)
	}
	n.Send(0, 1, []byte{1})
	n.Run(100)
	if len(n.TakeResults()) != 1 {
		t.Fatal("TakeResults did not return the completed message")
	}
	if len(n.TakeResults()) != 0 {
		t.Fatal("TakeResults did not clear")
	}
}

// TestMixedHeaderGenerations runs a network whose stages use different
// header regimes: an hw=0 bit-stripping stage, an hw=2 pipelined-setup
// stage, and an hw=1 stage, mixed in one path.
func TestMixedHeaderGenerations(t *testing.T) {
	n := buildFig1(t, func(p *Params) {
		p.StageHeaderWords = []int{0, 2, 1}
	})
	for src := 0; src < 16; src += 2 {
		n.Send(src, (src+7)%16, []byte("mixed generations"))
	}
	if !n.RunUntilQuiet(50000) {
		t.Fatal("network did not go quiet")
	}
	for _, r := range n.Results() {
		if !r.Delivered {
			t.Fatalf("undelivered with mixed hw stages: %+v", r)
		}
		if r.SuspectStage != -1 {
			t.Fatalf("spurious checksum suspicion: %+v", r)
		}
	}
	// Header accounting: 1 route word (hw=0 stage shares nothing here:
	// stage 0 digit packs into its own word) + 2 words (hw=2) + 1 word
	// (hw=1) and the usual payload+cksum+turn.
	if got := n.MessageWords(20); got != 1+2+1+20+1+1 {
		t.Fatalf("MessageWords(20) = %d with mixed headers", got)
	}
}
