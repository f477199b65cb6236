package core_test

import (
	"testing"

	"metro/internal/clock"
	"metro/internal/core"
	"metro/internal/link"
	"metro/internal/word"
)

// TestNoSwallowForwardsHeaderPad checks the Swallow=false regime across a
// two-router chain: the exhausted routing word is forwarded as a setup pad
// and silently discarded by the next router's idle port, so routing still
// succeeds.
func TestNoSwallowForwardsHeaderPad(t *testing.T) {
	cfg := cfg4x4()
	setA := dil1Settings(cfg)
	setA.Swallow = 0
	setB := dil1Settings(cfg)

	eng := clock.New()
	ra := core.NewRouter("A", cfg, setA, 3)
	rb := core.NewRouter("B", cfg, setB, 4)
	var srcs []link.End
	for fp := 0; fp < cfg.Inputs; fp++ {
		l := link.New("f", 1)
		ra.AttachForward(fp, l.B())
		srcs = append(srcs, l.A())
		eng.AddLatch(l)
	}
	for p := 0; p < cfg.Outputs; p++ {
		l := link.New("ab", 1)
		ra.AttachBackward(p, l.A())
		rb.AttachForward(p, l.B())
		eng.AddLatch(l)
	}
	var dsts []link.End
	for bp := 0; bp < cfg.Outputs; bp++ {
		l := link.New("bd", 1)
		rb.AttachBackward(bp, l.A())
		dsts = append(dsts, l.B())
		eng.AddLatch(l)
	}
	eng.Add(ra, rb)

	// Header: 2 bits for A (exhausted there, forwarded as pad), then a
	// separate 2-bit word for B.
	seq := []word.Word{
		word.MakeRoute(1, 2), // A direction 1; exhausted, becomes pad
		word.MakeRoute(2, 2), // B direction 2
		word.MakeData(0x6, mustWidth(4)),
	}
	var got []word.Word
	for i := 0; i < 14; i++ {
		if i < len(seq) {
			srcs[0].Send(seq[i])
		} else {
			srcs[0].Send(word.Word{Kind: word.DataIdle})
		}
		if w := dsts[2].Recv(); !w.IsEmpty() && w.Kind != word.DataIdle {
			got = append(got, w)
		}
		eng.Step()
	}
	if rb.OwnerOf(2) < 0 {
		t.Fatal("second router did not route despite the forwarded pad")
	}
	if len(got) != 1 || got[0].Kind != word.Data || got[0].Payload != 0x6 {
		t.Fatalf("destination saw %v, want just DATA(6)", got)
	}
}

// TestAllocationAfterSameCycleRelease: a port freed by a BCB teardown
// during the input pass is available to a request allocated in the same
// cycle's allocation pass.
func TestAllocationAfterSameCycleRelease(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 9)
	// Open a connection on fp0 -> bp1.
	h.src[0].Send(word.MakeRoute(1, 2))
	h.run()
	h.src[0].Send(word.Word{Kind: word.DataIdle})
	h.run()
	if h.r.OwnerOf(1) != 0 {
		t.Fatal("setup failed")
	}
	// Assert BCB from downstream on bp1 while fp1 requests direction 1 in
	// the same cycle: the teardown (input pass) precedes allocation, so
	// fp1 wins the just-freed port.
	h.dst[1].SendBCB(true)
	h.src[0].Send(word.Word{Kind: word.DataIdle})
	h.run()
	h.src[1].Send(word.MakeRoute(1, 2))
	h.src[0].Send(word.Word{Kind: word.Drop}) // first source aborts
	h.run()
	h.src[1].Send(word.Word{Kind: word.DataIdle})
	h.run()
	if h.r.OwnerOf(1) != 1 {
		t.Fatalf("bp1 owner = %d, want the same-cycle requester fp1", h.r.OwnerOf(1))
	}
}

// TestIdleOnlyConnection holds a connection open with DATA-IDLE for a long
// stretch, then closes it cleanly: pure idle fill neither corrupts
// checksums nor leaks resources.
func TestIdleOnlyConnection(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 11)
	h.src[0].Send(word.MakeRoute(0, 2))
	h.run()
	for i := 0; i < 50; i++ {
		h.src[0].Send(word.Word{Kind: word.DataIdle})
		h.run()
	}
	if h.r.ConnectionCount() != 1 {
		t.Fatal("idle fill did not hold the connection")
	}
	var got []word.Word
	for i := 0; i < 12; i++ {
		if i == 0 {
			h.src[0].Send(word.Word{Kind: word.Turn})
		} else {
			h.src[0].Send(word.Word{Kind: word.DataIdle})
		}
		if w := h.src[0].Recv(); !w.IsEmpty() && w.Kind != word.DataIdle {
			got = append(got, w)
		}
		h.run()
	}
	if len(got) < 3 || got[0].Kind != word.Status {
		t.Fatalf("reply = %v", got)
	}
	// Checksum covers only the route word: idles are excluded.
	var ck word.Checksum
	ck.Add(word.MakeRoute(0, 2))
	if sum := word.JoinChecksum(got[1:3], mustWidth(4)); sum != ck.Sum() {
		t.Fatalf("idle-only checksum = %#x, want %#x", sum, ck.Sum())
	}
}

// TestDilationReconfigureBetweenMessages reconfigures a router from
// dilation 2 to dilation 1 between connections; the routing semantics
// follow the new radix.
func TestDilationReconfigureBetweenMessages(t *testing.T) {
	cfg := cfg4x4()
	set := core.DefaultSettings(cfg) // dilation 2: radix 2
	h := newHarness(cfg, set, 13)
	h.src[0].Send(word.MakeRoute(1, 1)) // dir 1 of 2 -> ports {2,3}
	h.run()
	h.src[0].Send(word.Word{Kind: word.Drop})
	h.run()
	h.run()
	h.run()
	if h.r.ConnectionCount() != 0 {
		t.Fatal("first connection not closed")
	}
	newSet := h.r.Settings()
	newSet.Dilation = 1 // radix 4
	if err := h.r.ApplySettings(newSet); err != nil {
		t.Fatal(err)
	}
	h.src[0].Send(word.MakeRoute(3, 2)) // dir 3 of 4 -> port 3 exactly
	h.run()
	h.src[0].Send(word.Word{Kind: word.DataIdle})
	h.run()
	if h.r.OwnerOf(3) != 0 {
		t.Fatalf("after reconfigure, dir 3 should map to port 3; owners: %v",
			[]int{h.r.OwnerOf(0), h.r.OwnerOf(1), h.r.OwnerOf(2), h.r.OwnerOf(3)})
	}
}

// TestBackToBackMessagesOnePort streams several messages through the same
// forward port with the close-gap discipline, ensuring no state leaks
// between connections.
func TestBackToBackMessagesOnePort(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 15)
	gap := cfg.DataPipe + 2
	delivered := 0
	cyclesPerMsg := 3 + gap
	total := 6 * cyclesPerMsg
	for i := 0; i < total; i++ {
		switch i % cyclesPerMsg {
		case 0:
			h.src[0].Send(word.MakeRoute(2, 2))
		case 1:
			h.src[0].Send(word.MakeData(uint32(i), mustWidth(4)))
		case 2:
			h.src[0].Send(word.Word{Kind: word.Drop})
		}
		if w := h.dst[2].Recv(); w.Kind == word.Data {
			delivered++
		}
		h.run()
	}
	// Drain.
	for i := 0; i < 6; i++ {
		if w := h.dst[2].Recv(); w.Kind == word.Data {
			delivered++
		}
		h.run()
	}
	if delivered != 6 {
		t.Fatalf("delivered %d data words across 6 back-to-back messages", delivered)
	}
	if h.r.ConnectionCount() != 0 || h.r.ClosingCount() != 0 {
		t.Fatal("state leaked across back-to-back connections")
	}
}
