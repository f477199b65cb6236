package netsim

import (
	"bytes"
	"testing"

	"metro/internal/topo"
	"metro/internal/word"
)

func buildCascaded(t *testing.T, c int, mutate func(*Params)) *Network {
	t.Helper()
	p := Params{
		Spec:         topo.Figure1(),
		Width:        4, // METROJR-style 4-bit components
		DataPipe:     1,
		LinkDelay:    1,
		FastReclaim:  true,
		CascadeWidth: c,
		Seed:         51,
		RetryLimit:   300,
	}
	if mutate != nil {
		mutate(&p)
	}
	n, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCascadedNetworkDelivery(t *testing.T) {
	for _, c := range []int{2, 4} {
		var got []byte
		n := buildCascaded(t, c, func(p *Params) {
			p.OnDeliver = func(dest int, payload []byte, intact bool) {
				if dest == 13 && intact {
					got = append([]byte(nil), payload...)
				}
			}
		})
		// 18 bytes: a whole number of words at every lane width used here.
		payload := []byte("cascaded delivery!")
		n.Send(2, 13, payload)
		if !n.RunUntilQuiet(5000) {
			t.Fatalf("c=%d: network did not go quiet", c)
		}
		res := n.Results()
		if len(res) != 1 || !res[0].Delivered {
			t.Fatalf("c=%d: delivery failed: %+v", c, res)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("c=%d: payload corrupted across lanes: %q", c, got)
		}
		if res[0].SuspectStage != -1 {
			t.Fatalf("c=%d: healthy cascade flagged stage %d", c, res[0].SuspectStage)
		}
	}
}

func TestCascadedAllPairs(t *testing.T) {
	n := buildCascaded(t, 2, nil)
	want := 0
	for src := 0; src < 16; src++ {
		for d := 1; d <= 3; d++ {
			n.Send(src, (src+d*5)%16, []byte{byte(src), byte(d)})
			want++
		}
	}
	if !n.RunUntilQuiet(500000) {
		t.Fatal("network did not go quiet")
	}
	res := n.Results()
	if len(res) != want {
		t.Fatalf("completed %d of %d", len(res), want)
	}
	for _, r := range res {
		if !r.Delivered {
			t.Fatalf("undelivered: %+v", r)
		}
	}
}

// TestCascadeHalvesTransferTime verifies Table 3's cascade effect in the
// cycle domain: the same payload crosses a 2-cascade in roughly half the
// serialization time (header and per-stage latency unchanged).
func TestCascadeHalvesTransferTime(t *testing.T) {
	lat := func(c int) uint64 {
		n := buildCascaded(t, c, nil)
		n.Send(0, 15, make([]byte, 40))
		if !n.RunUntilQuiet(5000) {
			t.Fatal("not quiet")
		}
		r := n.Results()[0]
		if !r.Delivered {
			t.Fatal("undelivered")
		}
		return r.Done - r.Injected
	}
	l1, l2 := lat(1), lat(2)
	// 40 bytes at w=4: 80 payload words singly, 40 words cascaded: the
	// serialization saving is ~40 cycles on the forward path.
	saving := int(l1) - int(l2)
	if saving < 30 {
		t.Fatalf("cascade saved only %d cycles (c=1: %d, c=2: %d)", saving, l1, l2)
	}
}

// TestCascadedLaneFaultContained injects a corrupting fault into a single
// lane: the per-lane checksums catch it, the consistency machinery keeps
// the lanes in lockstep, and retries deliver the message.
func TestCascadedLaneFaultContained(t *testing.T) {
	n := buildCascaded(t, 2, func(p *Params) { p.ListenTimeout = 200 })
	// Stuck bit on lane 1 of every output of stage-0 router 1.
	r0 := n.RouterAt(0, 1)
	for bp := 0; bp < r0.Config().Outputs; bp++ {
		n.tierLink(1, r0.Config().Outputs+bp, 1).SetCorruptor(func(w word.Word) word.Word {
			if w.Kind == word.Data {
				w.Payload |= 0x1
			}
			return w
		}, nil)
	}
	sent := 0
	for src := 0; src < 16; src++ {
		for d := 1; d <= 2; d++ {
			n.Send(src, (src+d*7)%16, []byte{0x00, 0x02, 0x04})
			sent++
		}
	}
	if !n.RunUntilQuiet(1000000) {
		t.Fatal("network did not go quiet")
	}
	res := n.Results()
	if len(res) != sent {
		t.Fatalf("completed %d of %d", len(res), sent)
	}
	corrupted := 0
	for _, r := range res {
		if !r.Delivered {
			t.Fatalf("undelivered despite retries: %+v", r)
		}
		corrupted += r.ChecksumFailures
	}
	if corrupted == 0 {
		t.Fatal("lane fault never detected — corruption model suspect")
	}
}

// TestCascadedLaneDeadLinkRecovered kills one lane of one link: the
// logical channel through it breaks lockstep and the sources route
// around it.
func TestCascadedLaneDeadLinkRecovered(t *testing.T) {
	n := buildCascaded(t, 2, func(p *Params) { p.ListenTimeout = 150 })
	n.tierLink(1, 0, 1).Kill() // lane 1 of stage-0 router 0's backward port 0
	sent := 0
	for src := 0; src < 16; src++ {
		n.Send(src, (src+9)%16, []byte("lane loss"))
		sent++
	}
	if !n.RunUntilQuiet(1000000) {
		t.Fatal("network did not go quiet")
	}
	res := n.Results()
	delivered := 0
	for _, r := range res {
		if r.Delivered {
			delivered++
		}
	}
	if delivered != sent {
		t.Fatalf("delivered %d of %d with one dead lane", delivered, sent)
	}
}

func TestCascadedMessageWords(t *testing.T) {
	n := buildCascaded(t, 2, nil)
	// Logical width 8: 20 payload bytes -> 20 words; header: Figure-1
	// digits 1+1+2 bits pack into one 4-bit route word; cksum 1 word at
	// logical width 8; +1 turn = 23.
	if got := n.MessageWords(20); got != 23 {
		t.Fatalf("MessageWords(20) = %d, want 23", got)
	}
}

func TestCascadedInvariants(t *testing.T) {
	n := buildCascaded(t, 2, nil)
	for src := 0; src < 16; src++ {
		n.Send(src, (src+5)%16, []byte{1, 2, 3, 4})
	}
	for cycle := 0; cycle < 600; cycle++ {
		n.Engine.Step()
		for s := range n.Routers {
			for _, lanes := range n.Routers[s] {
				for _, r := range lanes {
					if err := r.CheckInvariants(); err != nil {
						t.Fatalf("cycle %d: %v", cycle, err)
					}
				}
				if lanes[0].BackwardInUse() != lanes[1].BackwardInUse() {
					t.Fatalf("cycle %d: %s lanes out of lockstep", cycle, lanes[0].Name())
				}
			}
		}
	}
}

// TestCascadedDetailedMode combines width cascading with detailed blocked
// replies: blocked connections on a cascaded router return lockstep
// STATUS/CHECKSUM/DROP replies on every lane, and the source decodes the
// blocking stage.
func TestCascadedDetailedMode(t *testing.T) {
	n := buildCascaded(t, 2, func(p *Params) {
		p.FastReclaim = false
		p.MaxActiveSenders = 1
		p.RetryLimit = 500
	})
	sent := 0
	for src := 0; src < 16; src++ {
		if src == 4 {
			continue
		}
		n.Send(src, 4, []byte{byte(src)}) // hotspot forces blocking
		sent++
	}
	if !n.RunUntilQuiet(1000000) {
		t.Fatal("network did not go quiet")
	}
	res := n.Results()
	if len(res) != sent {
		t.Fatalf("completed %d of %d", len(res), sent)
	}
	detailed := 0
	for _, r := range res {
		if !r.Delivered {
			t.Fatalf("undelivered: %+v", r)
		}
		detailed += r.BlockedDetailed
		if r.BlockedFast > 0 {
			t.Fatalf("fast block reported in detailed mode: %+v", r)
		}
		if r.BlockedDetailed > 0 && r.LastBlockedStage < 0 {
			t.Fatalf("detailed block without stage info: %+v", r)
		}
	}
	if detailed == 0 {
		t.Fatal("hotspot produced no detailed blocks")
	}
}
