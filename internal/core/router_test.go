package core_test

import (
	"reflect"
	"testing"

	"metro/internal/clock"
	"metro/internal/core"
	"metro/internal/link"
	"metro/internal/telemetry"
	"metro/internal/word"
)

// harness wires a single router to scriptable link ends: the test acts as
// the upstream sources (A ends of the forward links) and the downstream
// destinations (B ends of the backward links).
type harness struct {
	eng *clock.Engine
	r   *core.Router
	src []link.End // we drive these (upstream side of forward ports)
	dst []link.End // we observe/drive these (downstream side of backward ports)
}

func newHarness(cfg core.Config, set core.Settings, seed uint32) *harness {
	h := &harness{eng: clock.New()}
	h.r = core.NewRouter("r0", cfg, set, seed)
	for fp := 0; fp < cfg.Inputs; fp++ {
		l := link.New("f", 1)
		h.r.AttachForward(fp, l.B())
		h.src = append(h.src, l.A())
		h.eng.AddLatch(l)
	}
	for bp := 0; bp < cfg.Outputs; bp++ {
		l := link.New("b", 1)
		h.r.AttachBackward(bp, l.A())
		h.dst = append(h.dst, l.B())
		h.eng.AddLatch(l)
	}
	h.eng.Add(h.r)
	return h
}

// idlePad extends seq to n words with DATA-IDLE fill, as a real network
// interface does to hold a connection open.
func idlePad(seq []word.Word, n int) []word.Word {
	out := append([]word.Word(nil), seq...)
	for len(out) < n {
		out = append(out, word.Word{Kind: word.DataIdle})
	}
	return out
}

func cfg4x4() core.Config {
	return core.Config{
		Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 2,
		HeaderWords: 0, DataPipe: 1, MaxVTD: 4, RandomInputs: 2, ScanPaths: 2,
	}
}

func dil1Settings(cfg core.Config) core.Settings {
	s := core.DefaultSettings(cfg)
	s.Dilation = 1
	return s
}

// run advances one cycle; sends must be staged before calling it.
func (h *harness) run() { h.eng.Step() }

// collect runs n cycles feeding seq (one word per cycle) into forward port
// fp and returns the non-empty words observed at backward port bp.
func (h *harness) collect(fp, bp, n int, seq []word.Word) []word.Word {
	var got []word.Word
	for i := 0; i < n; i++ {
		if i < len(seq) {
			h.src[fp].Send(seq[i])
		}
		if w := h.dst[bp].Recv(); !w.IsEmpty() && w.Kind != word.DataIdle {
			got = append(got, w)
		}
		h.run()
	}
	return got
}

func TestRouteAndForwardData(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 1)
	// dilation 1, radix 4: direction 2 is backward port 2; 2 route bits.
	seq := idlePad([]word.Word{
		word.MakeRoute(2, 2),
		word.MakeData(0xA, mustWidth(4)),
		word.MakeData(0xB, mustWidth(4)),
	}, 12)
	got := h.collect(0, 2, 12, seq)
	// The route word is exhausted (2 bits consumed) and swallowed, so the
	// destination sees only the data.
	if len(got) != 2 {
		t.Fatalf("destination saw %d words (%v), want 2", len(got), got)
	}
	if got[0].Payload != 0xA || got[1].Payload != 0xB {
		t.Fatalf("data corrupted: %v", got)
	}
	if h.r.ConnectionCount() != 1 {
		t.Fatalf("ConnectionCount = %d, want 1", h.r.ConnectionCount())
	}
	if h.r.OwnerOf(2) != 0 {
		t.Fatalf("backward port 2 owner = %d, want 0", h.r.OwnerOf(2))
	}
}

func TestRouteWordForwardedWhenBitsRemain(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 1)
	// 4 bits of route: this router consumes 2, forwards 2 for a later stage.
	seq := idlePad([]word.Word{word.MakeRoute(0b1110, 4)}, 10)
	got := h.collect(0, 2, 10, seq) // low bits 0b10 = direction 2
	if len(got) != 1 || got[0].Kind != word.Route {
		t.Fatalf("expected a stripped route word, got %v", got)
	}
	if got[0].Bits != 2 || got[0].Payload != 0b11 {
		t.Fatalf("stripped route word = %v, want ROUTE(0b11/2b)", got[0])
	}
}

func TestDilatedRandomSelection(t *testing.T) {
	cfg := cfg4x4()
	set := core.DefaultSettings(cfg) // dilation 2: radix 2, dirs {0,1}
	counts := map[int]int{}
	for trial := 0; trial < 200; trial++ {
		h := newHarness(cfg, set, uint32(trial+1))
		seq := idlePad([]word.Word{word.MakeRoute(1, 1)}, 4) // direction 1: ports 2,3
		for i := 0; i < 4; i++ {
			h.src[0].Send(seq[i])
			h.run()
		}
		for bp := 2; bp < 4; bp++ {
			if h.r.OwnerOf(bp) == 0 {
				counts[bp]++
			}
		}
	}
	if counts[2]+counts[3] != 200 {
		t.Fatalf("allocations lost: %v", counts)
	}
	if counts[2] < 50 || counts[3] < 50 {
		t.Fatalf("selection not balanced across dilated ports: %v", counts)
	}
}

func TestBlockedDetailedReply(t *testing.T) {
	cfg := cfg4x4()
	set := dil1Settings(cfg)
	set.FastReclaim &^= 1 << 1
	h := newHarness(cfg, set, 3)

	// First connection takes direction 0 (the only port in dir 0).
	h.src[0].Send(word.MakeRoute(0, 2))
	h.run()
	h.src[0].Send(word.Word{Kind: word.DataIdle})
	h.run()
	if h.r.OwnerOf(0) != 0 {
		t.Fatal("setup connection not established")
	}

	// Second connection to the same direction must block; in detailed mode
	// the reply comes after the TURN.
	seq := []word.Word{
		word.MakeRoute(0, 2),
		word.MakeData(1, mustWidth(4)),
		{Kind: word.Turn},
	}
	var got []word.Word
	for i := 0; i < 15; i++ {
		h.src[0].Send(word.Word{Kind: word.DataIdle}) // hold first connection
		if i < len(seq) {
			h.src[1].Send(seq[i])
		}
		if w := h.src[1].Recv(); !w.IsEmpty() && w.Kind != word.DataIdle {
			got = append(got, w)
		}
		h.run()
	}
	// Expect STATUS(blocked), two checksum words (w=4), DROP.
	if len(got) != 4 {
		t.Fatalf("blocked reply = %v, want status+2 cksum+drop", got)
	}
	if got[0].Kind != word.Status || got[0].Payload&word.StatusBlocked == 0 {
		t.Fatalf("first reply word = %v, want blocked STATUS", got[0])
	}
	if got[1].Kind != word.ChecksumWord || got[2].Kind != word.ChecksumWord {
		t.Fatalf("reply = %v, want checksum words after status", got)
	}
	if got[3].Kind != word.Drop {
		t.Fatalf("reply must end with DROP, got %v", got)
	}
	// Verify the reported checksum covers the words the router received.
	var ck word.Checksum
	ck.Add(seq[0])
	ck.Add(seq[1])
	if sum := word.JoinChecksum(got[1:3], mustWidth(4)); sum != ck.Sum() {
		t.Fatalf("blocked reply checksum = %#x, want %#x", sum, ck.Sum())
	}
	if h.r.ConnectionCount() != 1 {
		t.Fatalf("blocked connection not released: %d", h.r.ConnectionCount())
	}
}

func TestBlockedFastReclaimBCB(t *testing.T) {
	cfg := cfg4x4()
	set := dil1Settings(cfg) // FastReclaim defaults on
	h := newHarness(cfg, set, 3)

	h.src[0].Send(word.MakeRoute(0, 2))
	h.run()
	h.src[0].Send(word.Word{Kind: word.DataIdle})
	h.run()

	// Port 1 requests the occupied direction: BCB should come back.
	sawBCB := -1
	seq := []word.Word{word.MakeRoute(0, 2), word.MakeData(1, mustWidth(4)), word.MakeData(2, mustWidth(4))}
	for i := 0; i < 10; i++ {
		h.src[0].Send(word.Word{Kind: word.DataIdle}) // hold first connection
		if i < len(seq) {
			h.src[1].Send(seq[i])
		}
		if h.src[1].RecvBCB() && sawBCB < 0 {
			sawBCB = i
		}
		h.run()
	}
	if sawBCB < 0 {
		t.Fatal("no BCB observed at the source")
	}
	// Source aborts with DROP; the draining port must return to idle and
	// the BCB must deassert.
	for _, w := range []word.Word{{Kind: word.Drop}, {}, {}} {
		h.src[0].Send(word.Word{Kind: word.DataIdle})
		if !w.IsEmpty() {
			h.src[1].Send(w)
		}
		h.run()
	}
	if h.r.ConnectionCount() != 1 {
		t.Fatalf("drained port not idle: %d connections", h.r.ConnectionCount())
	}
	if h.src[1].RecvBCB() {
		t.Fatal("BCB still asserted after drop")
	}
}

func TestTurnReversalStatusAndData(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 5)
	seq := []word.Word{
		word.MakeRoute(3, 2),
		word.MakeData(0x7, mustWidth(4)),
		{Kind: word.Turn},
	}
	// Destination replies with two data words once it sees the TURN.
	var up []word.Word // words observed at the source side
	replied := false
	var reply []word.Word
	for i := 0; i < 30; i++ {
		if i < len(seq) {
			h.src[0].Send(seq[i])
		}
		if w := h.dst[3].Recv(); w.Kind == word.Turn {
			replied = true
			reply = []word.Word{word.MakeData(0xC, mustWidth(4)), word.MakeData(0xD, mustWidth(4))}
		}
		if replied && len(reply) > 0 {
			h.dst[3].Send(reply[0])
			reply = reply[1:]
		}
		if w := h.src[0].Recv(); !w.IsEmpty() && w.Kind != word.DataIdle {
			up = append(up, w)
		}
		h.run()
	}
	// Source should see: STATUS(ok), cksum x2, then the reply data.
	if len(up) < 5 {
		t.Fatalf("source saw %v, want status+cksum+2 data", up)
	}
	if up[0].Kind != word.Status || up[0].Payload&word.StatusBlocked != 0 {
		t.Fatalf("first upstream word = %v, want ok STATUS", up[0])
	}
	if up[1].Kind != word.ChecksumWord || up[2].Kind != word.ChecksumWord {
		t.Fatalf("upstream = %v, want checksum words", up)
	}
	var ck word.Checksum
	ck.Add(seq[0])
	ck.Add(seq[1])
	if sum := word.JoinChecksum(up[1:3], mustWidth(4)); sum != ck.Sum() {
		t.Fatalf("status checksum = %#x, want %#x", sum, ck.Sum())
	}
	if up[3].Payload != 0xC || up[4].Payload != 0xD {
		t.Fatalf("reply data corrupted: %v", up[3:])
	}
}

func TestDropReleasesConnection(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 5)
	seq := []word.Word{
		word.MakeRoute(0, 2),
		word.MakeData(1, mustWidth(4)),
		{Kind: word.Drop},
	}
	var down []word.Word
	for i := 0; i < 10; i++ {
		if i < len(seq) {
			h.src[0].Send(seq[i])
		}
		if w := h.dst[0].Recv(); !w.IsEmpty() && w.Kind != word.DataIdle {
			down = append(down, w)
		}
		h.run()
	}
	if h.r.ConnectionCount() != 0 {
		t.Fatalf("connection not released after DROP")
	}
	if h.r.OwnerOf(0) != -1 {
		t.Fatal("backward port not freed")
	}
	// The DROP must propagate downstream so the next stage releases too.
	if len(down) == 0 || down[len(down)-1].Kind != word.Drop {
		t.Fatalf("downstream saw %v, want trailing DROP", down)
	}
}

func TestEmptyStreamImplicitClose(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 5)
	seq := []word.Word{word.MakeRoute(0, 2), word.MakeData(1, mustWidth(4))}
	var down []word.Word
	for i := 0; i < 12; i++ {
		if i < len(seq) {
			h.src[0].Send(seq[i])
		}
		// After the data, the source goes silent (dead source model).
		if w := h.dst[0].Recv(); !w.IsEmpty() && w.Kind != word.DataIdle {
			down = append(down, w)
		}
		h.run()
	}
	if h.r.ConnectionCount() != 0 {
		t.Fatal("silent upstream did not close the connection")
	}
	if len(down) == 0 || down[len(down)-1].Kind != word.Drop {
		t.Fatalf("downstream saw %v, want synthesized DROP", down)
	}
}

func TestHeaderWordsConsumed(t *testing.T) {
	cfg := cfg4x4()
	cfg.HeaderWords = 2
	h := newHarness(cfg, dil1Settings(cfg), 5)
	seq := idlePad([]word.Word{
		word.MakeRoute(1, 2),
		{Kind: word.HeaderPad, Payload: 0xF},
		word.MakeData(0x9, mustWidth(4)),
	}, 12)
	got := h.collect(0, 1, 12, seq)
	// Both header words are consumed by this router; only data flows on.
	if len(got) != 1 || got[0].Kind != word.Data || got[0].Payload != 0x9 {
		t.Fatalf("downstream saw %v, want just DATA(9)", got)
	}
}

func TestDataPipeDepthDelaysData(t *testing.T) {
	arrival := func(dp int) int {
		cfg := cfg4x4()
		cfg.DataPipe = dp
		h := newHarness(cfg, dil1Settings(cfg), 5)
		seq := []word.Word{word.MakeRoute(0, 2), word.MakeData(1, mustWidth(4))}
		for i := 0; i < 20; i++ {
			if i < len(seq) {
				h.src[0].Send(seq[i])
			}
			if w := h.dst[0].Recv(); w.Kind == word.Data {
				return i
			}
			h.run()
		}
		return -1
	}
	a1, a3 := arrival(1), arrival(3)
	if a1 < 0 || a3 < 0 {
		t.Fatal("data never arrived")
	}
	if a3-a1 != 2 {
		t.Fatalf("dp=3 arrival %d, dp=1 arrival %d: want 2 extra cycles", a3, a1)
	}
}

func TestDisabledBackwardPortNotAllocated(t *testing.T) {
	cfg := cfg4x4()
	set := core.DefaultSettings(cfg) // dilation 2: dir 1 = ports 2,3
	set.BackwardEnabled &^= 1 << 2
	for trial := 0; trial < 20; trial++ {
		h := newHarness(cfg, set, uint32(trial+1))
		h.src[0].Send(word.MakeRoute(1, 1))
		h.run()
		h.run()
		if h.r.OwnerOf(2) != -1 {
			t.Fatal("disabled port was allocated")
		}
		if h.r.OwnerOf(3) != 0 {
			t.Fatal("enabled twin port was not allocated")
		}
	}
}

func TestDisabledForwardPortIgnoresTraffic(t *testing.T) {
	cfg := cfg4x4()
	set := dil1Settings(cfg)
	set.ForwardEnabled &^= 1 << 2
	h := newHarness(cfg, set, 9)
	h.src[2].Send(word.MakeRoute(0, 2))
	h.run()
	h.run()
	if h.r.ConnectionCount() != 0 {
		t.Fatal("disabled forward port accepted a connection")
	}
}

// TestForwardPortMaskedMidRun: masking a forward port during operation, by
// the per-port setter or by a whole settings load, makes it ignore a ROUTE;
// unmasking it makes it accept one. Both writers must keep the router's
// watched-port mask current.
func TestForwardPortMaskedMidRun(t *testing.T) {
	cfg := cfg4x4()
	writers := []struct {
		name  string
		write func(r *core.Router, fp int, on bool)
	}{
		{"SetForwardEnabled", func(r *core.Router, fp int, on bool) { r.SetForwardEnabled(fp, on) }},
		{"ApplySettings", func(r *core.Router, fp int, on bool) {
			set := r.Settings()
			set.ForwardEnabled &^= 1 << fp
			if on {
				set.ForwardEnabled |= 1 << fp
			}
			if err := r.ApplySettings(set); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, w := range writers {
		write := w.write
		t.Run(w.name, func(t *testing.T) {
			h := newHarness(cfg, dil1Settings(cfg), 9)
			h.run() // mid-run: the mask is rewritten after cycles have passed
			write(h.r, 2, false)
			if h.r.ForwardEnabled(2) {
				t.Fatal("port 2 still reads enabled")
			}
			h.src[2].Send(word.MakeRoute(1, 2))
			h.run()
			h.run()
			if h.r.ConnectionCount() != 0 || h.r.OwnerOf(1) != -1 {
				t.Fatal("masked forward port accepted a connection")
			}
			// The other ports are unaffected.
			h.src[0].Send(word.MakeRoute(3, 2))
			h.run()
			h.run()
			if h.r.OwnerOf(3) != 0 {
				t.Fatal("an unmasked port stopped accepting connections")
			}
			write(h.r, 2, true)
			h.src[2].Send(word.MakeRoute(1, 2))
			h.run()
			h.run()
			if h.r.OwnerOf(1) != 2 {
				t.Fatalf("re-enabled port was not served: backward port 1 owner = %d, want 2", h.r.OwnerOf(1))
			}
			if err := h.r.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDisabledPortStillDrainsOpenConnection: masking a forward port stops it
// reading its input, not the connection already open on it. The words in
// the router's pipeline keep flowing out the backward port (the output pass
// walks the live ports, not the enabled ones), the connection stays
// allocated while masked, and it resumes when the port is re-enabled.
func TestDisabledPortStillDrainsOpenConnection(t *testing.T) {
	cfg := cfg4x4()
	cfg.DataPipe = 3
	h := newHarness(cfg, dil1Settings(cfg), 5)
	var got []uint32
	observe := func() {
		if w := h.dst[2].Recv(); w.Kind == word.Data {
			got = append(got, w.Payload)
		}
	}
	seq := []word.Word{word.MakeRoute(2, 2), word.MakeData(1, mustWidth(4)), word.MakeData(2, mustWidth(4)), word.MakeData(3, mustWidth(4))}
	for _, w := range seq {
		h.src[0].Send(w)
		observe()
		h.run()
	}
	h.src[0].Send(word.Word{Kind: word.DataIdle})
	observe()
	h.run()
	// The router has taken in all three data words; dp = 3 keeps them
	// inside it. Mask the port now.
	if len(got) != 0 {
		t.Fatalf("data left the router before the pipeline depth elapsed: %v", got)
	}
	h.r.SetForwardEnabled(0, false)
	for i := 0; i < 8; i++ {
		// Ignored while masked. The last two cycles hold the channel with
		// DATA-IDLE so nothing stray is on the wire at re-enable.
		if i < 6 {
			h.src[0].Send(word.MakeData(0xF, mustWidth(4)))
		} else {
			h.src[0].Send(word.Word{Kind: word.DataIdle})
		}
		observe()
		h.run()
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("in-flight words after masking: %v, want [1 2 3]", got)
	}
	if h.r.ConnectionCount() != 1 || h.r.OwnerOf(2) != 0 {
		t.Fatalf("masked port lost its connection: count %d, owner of bp2 %d", h.r.ConnectionCount(), h.r.OwnerOf(2))
	}
	if err := h.r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	h.r.SetForwardEnabled(0, true)
	h.src[0].Send(word.MakeData(7, mustWidth(4)))
	h.run()
	for i := 0; i < 6; i++ {
		h.src[0].Send(word.Word{Kind: word.DataIdle})
		observe()
		h.run()
	}
	if len(got) != 4 || got[3] != 7 {
		t.Fatalf("connection did not resume after re-enabling: %v, want [1 2 3 7]", got)
	}
}

func TestContentionServedInPortOrder(t *testing.T) {
	cfg := cfg4x4()
	set := core.DefaultSettings(cfg) // dilation 2: 2 ports per direction
	h := newHarness(cfg, set, 11)
	// Three simultaneous requests for direction 0 (2 ports): 2 win, 1 blocks.
	h.src[0].Send(word.MakeRoute(0, 1))
	h.src[1].Send(word.MakeRoute(0, 1))
	h.src[2].Send(word.MakeRoute(0, 1))
	h.run() // words travel the links
	h.run() // allocation cycle
	winners := 0
	for bp := 0; bp < 2; bp++ {
		if h.r.OwnerOf(bp) >= 0 {
			winners++
		}
	}
	if winners != 2 {
		t.Fatalf("winners = %d, want 2", winners)
	}
	if h.r.OwnerOf(0) == 2 || h.r.OwnerOf(1) == 2 {
		t.Fatal("port-order arbitration violated: fp2 beat fp0/fp1")
	}
}

func TestBCBPropagatesUpstreamAndFreesPort(t *testing.T) {
	// Chain: us -> router A -> router B(all dir-0 ports busy) and check BCB
	// reaches us through A, with A's backward port freed promptly.
	cfg := cfg4x4()
	setA := dil1Settings(cfg)
	setB := dil1Settings(cfg)

	eng := clock.New()
	ra := core.NewRouter("A", cfg, setA, 21)
	rb := core.NewRouter("B", cfg, setB, 22)

	var srcs []link.End
	for fp := 0; fp < cfg.Inputs; fp++ {
		l := link.New("fa", 1)
		ra.AttachForward(fp, l.B())
		srcs = append(srcs, l.A())
		eng.AddLatch(l)
	}
	// A's backward ports all feed B's forward ports.
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

	// Occupy B's direction 0 via A (route: dir0 at A, dir0 at B).
	srcs[0].Send(word.MakeRoute(0b0000, 4))
	eng.Step()
	for i := 0; i < 6; i++ {
		srcs[0].Send(word.Word{Kind: word.DataIdle})
		eng.Step()
	}
	if rb.OwnerOf(0) < 0 {
		t.Fatal("setup connection did not reach router B")
	}

	// Second connection: A dir 1, then B dir 0 (busy) -> fast-blocked at B.
	sawBCB := false
	for i := 0; i < 15; i++ {
		srcs[0].Send(word.Word{Kind: word.DataIdle}) // hold first connection
		switch {
		case i == 0:
			srcs[1].Send(word.MakeRoute(0b0001, 4))
		case i < 6:
			srcs[1].Send(word.MakeData(uint32(i), mustWidth(4)))
		}
		if srcs[1].RecvBCB() {
			sawBCB = true
		}
		eng.Step()
	}
	if !sawBCB {
		t.Fatal("BCB did not propagate through router A to the source")
	}
	if ra.OwnerOf(1) != -1 {
		t.Fatal("router A did not free its backward port on BCB")
	}
	// Terminate the aborted stream; A's forward port should go idle.
	srcs[0].Send(word.Word{Kind: word.DataIdle})
	srcs[1].Send(word.Word{Kind: word.Drop})
	eng.Step()
	for i := 0; i < 3; i++ {
		srcs[0].Send(word.Word{Kind: word.DataIdle})
		eng.Step()
	}
	if got := ra.ConnectionCount(); got != 1 {
		t.Fatalf("router A connections = %d, want only the held one", got)
	}
}

func TestKillConnectionAssertsBCB(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 13)
	h.src[0].Send(word.MakeRoute(0, 2))
	h.run()
	h.src[0].Send(word.Word{Kind: word.DataIdle})
	h.run()
	if h.r.OwnerOf(0) != 0 {
		t.Fatal("connection not set up")
	}
	h.r.KillConnection(h.eng.Cycle(), 0)
	if h.r.OwnerOf(0) != -1 {
		t.Fatal("KillConnection did not free the backward port")
	}
	h.src[0].Send(word.Word{Kind: word.DataIdle})
	h.run()
	h.src[0].Send(word.Word{Kind: word.DataIdle})
	h.run()
	if !h.src[0].RecvBCB() {
		t.Fatal("KillConnection did not assert BCB toward the source")
	}
}

func TestMalformedRouteWordDiscarded(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 13)
	// Router needs 2 bits; send a 1-bit route word.
	h.src[0].Send(word.MakeRoute(1, 1))
	h.run()
	h.run()
	if h.r.ConnectionCount() != 0 {
		t.Fatal("malformed route word should not open a connection")
	}
}

func TestConfigValidation(t *testing.T) {
	good := cfg4x4()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []core.Config{
		{Inputs: 3, Outputs: 4, Width: 4, MaxDilation: 1, DataPipe: 1, RandomInputs: 1, ScanPaths: 1},
		{Inputs: 4, Outputs: 5, Width: 4, MaxDilation: 1, DataPipe: 1, RandomInputs: 1, ScanPaths: 1},
		{Inputs: 4, Outputs: 4, Width: 1, MaxDilation: 1, DataPipe: 1, RandomInputs: 1, ScanPaths: 1},
		{Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 8, DataPipe: 1, RandomInputs: 1, ScanPaths: 1},
		{Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 1, DataPipe: 0, RandomInputs: 1, ScanPaths: 1},
		{Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 1, DataPipe: 1, RandomInputs: 0, ScanPaths: 1},
		{Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 3, DataPipe: 1, RandomInputs: 1, ScanPaths: 1},
		// log2(1) = 0 admits width 0; a router would inject no checksum.
		{Inputs: 1, Outputs: 1, Width: 0, MaxDilation: 1, DataPipe: 1, RandomInputs: 1, ScanPaths: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestSettingsValidation(t *testing.T) {
	cfg := cfg4x4()
	s := core.DefaultSettings(cfg)
	if err := s.Validate(cfg); err != nil {
		t.Fatalf("default settings rejected: %v", err)
	}
	s2 := s.Clone()
	s2.Dilation = 4 // exceeds MaxDilation 2
	if err := s2.Validate(cfg); err == nil {
		t.Error("oversized dilation accepted")
	}
	s3 := s.Clone()
	s3.TurnDelay[0] = 99
	if err := s3.Validate(cfg); err == nil {
		t.Error("oversized turn delay accepted")
	}
	s4 := s.Clone()
	s4.ForwardEnabled |= 1 << cfg.Inputs
	if err := s4.Validate(cfg); err == nil {
		t.Error("ForwardEnabled bit past the forward ports accepted")
	}
}

func TestRadixDilationHelpers(t *testing.T) {
	cfg := core.Config{Inputs: 8, Outputs: 8, Width: 4, MaxDilation: 2,
		HeaderWords: 0, DataPipe: 1, MaxVTD: 4, RandomInputs: 2, ScanPaths: 1}
	set := core.DefaultSettings(cfg)
	r := core.NewRouter("x", cfg, set, 1)
	if r.Radix() != 4 {
		t.Fatalf("Radix = %d, want 4", r.Radix())
	}
	if r.DirBits() != 2 {
		t.Fatalf("DirBits = %d, want 2", r.DirBits())
	}
	if r.Direction(5) != 2 {
		t.Fatalf("Direction(5) = %d, want 2", r.Direction(5))
	}
	lo, hi := r.PortsFor(3)
	if lo != 6 || hi != 8 {
		t.Fatalf("PortsFor(3) = [%d,%d), want [6,8)", lo, hi)
	}
}

// connCycle opens a connection on forward port 0, closes it with a DROP,
// then blocks a request from port 1 against a fresh connection on port 0
// and lets both go: every connection-lifecycle emit site except the turn.
func (h *harness) connCycle() {
	for _, w := range []word.Word{word.MakeRoute(0, 2), word.MakeData(1, mustWidth(4)), {Kind: word.Drop}} {
		h.src[0].Send(w)
		h.run()
	}
	for i := 0; i < 7; i++ {
		h.run()
	}
	h.src[0].Send(word.MakeRoute(0, 2))
	h.run()
	h.src[0].Send(word.Word{Kind: word.DataIdle})
	h.src[1].Send(word.MakeRoute(0, 2))
	h.run()
	for i := 0; i < 8; i++ {
		h.run()
	}
}

// TestRouterEmitsConnEvents reads the router's events back from a flushed
// recorder: the kinds, their count and the source SetID stored.
func TestRouterEmitsConnEvents(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 17)
	rec := telemetry.New(telemetry.Options{Capacity: 64})
	h.r.SetTelemetry(rec.NewBuf())
	h.r.SetID(1, 3, 0)
	h.connCycle()
	rec.Flush()
	counts := map[telemetry.Kind]int{}
	for _, e := range rec.Snapshot().Events {
		counts[e.Kind]++
		if want := telemetry.RouterSource(1, 3, 0); e.Src != want {
			t.Fatalf("%v: source %v, want %v", e, e.Src, want)
		}
	}
	want := map[telemetry.Kind]int{
		telemetry.EvConnSetup:       2,
		telemetry.EvConnBlockedFast: 1,
		telemetry.EvConnReleased:    2,
	}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("events by kind = %v, want %v", counts, want)
	}
}

// TestZeroAllocRouterWithoutTelemetry: a router with no buffer walks the
// same emit sites off the heap, and detaching a buffer stops emission.
func TestZeroAllocRouterWithoutTelemetry(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 17)
	h.connCycle() // warm the harness
	if !raceEnabled {
		if a := testing.AllocsPerRun(10, h.connCycle); a != 0 {
			t.Fatalf("router without a buffer: %v allocs per connection cycle, want 0", a)
		}
	}
	rec := telemetry.New(telemetry.Options{Capacity: 64})
	h.r.SetTelemetry(rec.NewBuf())
	h.r.SetTelemetry(nil)
	h.connCycle()
	rec.Flush()
	if rec.Total() != 0 {
		t.Fatalf("detached router emitted %d events", rec.Total())
	}
}

// mustWidth returns the word.Width of n bits; the tests only ask for
// widths in [1, 32].
func mustWidth(n int) word.Width {
	w, err := word.NewWidth(n)
	if err != nil {
		panic(err)
	}
	return w
}
