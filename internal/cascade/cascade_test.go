package cascade

import (
	"math/rand"
	"testing"

	"metro/internal/clock"
	"metro/internal/core"
	"metro/internal/link"
	"metro/internal/prng"
	"metro/internal/word"
)

func groupHarness(t *testing.T, c int) (*clock.Engine, *Group, [][]link.End, [][]link.End) {
	t.Helper()
	cfg := core.Config{Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 2,
		HeaderWords: 0, DataPipe: 1, MaxVTD: 4, RandomInputs: 2, ScanPaths: 1}
	set := core.DefaultSettings(cfg)
	set.Dilation = 1
	sh, err := core.NewShape(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroup("g", sh, c, prng.NewShared(77))
	eng := clock.New()
	// src[k][fp], dst[k][bp]: per-member link ends.
	src := make([][]link.End, c)
	dst := make([][]link.End, c)
	for k := 0; k < c; k++ {
		for fp := 0; fp < cfg.Inputs; fp++ {
			l := link.New("f", 1)
			g.Member(k).AttachForward(fp, l.B())
			src[k] = append(src[k], l.A())
			eng.AddLatch(l)
		}
		for bp := 0; bp < cfg.Outputs; bp++ {
			l := link.New("b", 1)
			g.Member(k).AttachBackward(bp, l.A())
			dst[k] = append(dst[k], l.B())
			eng.AddLatch(l)
		}
	}
	eng.Add(g)
	return eng, g, src, dst
}

func TestIdenticalAllocationUnderSharedRandomness(t *testing.T) {
	eng, g, src, _ := groupHarness(t, 2)
	rng := rand.New(rand.NewSource(5))
	for cycle := 0; cycle < 500; cycle++ {
		for fp := 0; fp < 4; fp++ {
			var w word.Word
			switch rng.Intn(4) {
			case 0:
				w = word.MakeRoute(uint32(rng.Intn(4)), 2)
			case 1, 2:
				w = word.Word{Kind: word.DataIdle}
			case 3:
				w = word.Word{Kind: word.Drop}
			}
			// Control words replicate to every member.
			for k := 0; k < g.Width(); k++ {
				src[k][fp].Send(w)
			}
		}
		eng.Step()
		if g.Member(0).BackwardInUse() != g.Member(1).BackwardInUse() {
			t.Fatalf("cycle %d: members disagree: %#x vs %#x",
				cycle, g.Member(0).BackwardInUse(), g.Member(1).BackwardInUse())
		}
	}
	if g.Kills() != 0 {
		t.Fatalf("healthy cascade killed %d connections", g.Kills())
	}
}

func TestWideDataTransfer(t *testing.T) {
	// A 2-cascade of 4-bit routers carries 8-bit logical words.
	eng, g, src, dst := groupHarness(t, 2)
	logical := []word.Word{
		word.MakeRoute(2, 2),
		{Kind: word.Data, Payload: 0xA7},
		{Kind: word.Data, Payload: 0x31},
		{Kind: word.DataIdle},
		{Kind: word.Drop},
	}
	var got []word.Word
	for i := 0; i < 12; i++ {
		if i < len(logical) {
			parts := splitWord(logical[i], 2, 4)
			for k := 0; k < 2; k++ {
				src[k][0].Send(parts[k])
			}
		}
		members := []word.Word{dst[0][2].Recv(), dst[1][2].Recv()}
		m := word.MergeWords(members, mustWidth(4))
		if m.Kind == word.Data {
			got = append(got, m)
		}
		eng.Step()
	}
	if len(got) != 2 || got[0].Payload != 0xA7 || got[1].Payload != 0x31 {
		t.Fatalf("wide data corrupted: %v", got)
	}
	if g.Kills() != 0 {
		t.Fatalf("unexpected kills: %d", g.Kills())
	}
}

func TestCorruptedHeaderContained(t *testing.T) {
	// Member 1 sees a corrupted route word (different direction): the
	// members allocate different backward ports and the wired-AND check
	// must shut the connection down on both, asserting BCB to the source.
	eng, g, src, _ := groupHarness(t, 2)
	sawBCB := false
	for i := 0; i < 10; i++ {
		// The source streams contiguously: route word then idle fill.
		if i == 0 {
			src[0][0].Send(word.MakeRoute(1, 2)) // direction 1
			src[1][0].Send(word.MakeRoute(2, 2)) // corrupted: direction 2
		} else {
			src[0][0].Send(word.Word{Kind: word.DataIdle})
			src[1][0].Send(word.Word{Kind: word.DataIdle})
		}
		for k := 0; k < 2; k++ {
			if src[k][0].RecvBCB() {
				sawBCB = true
			}
		}
		eng.Step()
	}
	if g.Kills() == 0 {
		t.Fatal("consistency check did not fire")
	}
	for k := 0; k < 2; k++ {
		for bp := 0; bp < 4; bp++ {
			if g.Member(k).OwnerOf(bp) >= 0 {
				t.Fatalf("member %d still holds bp %d after containment", k, bp)
			}
		}
	}
	if !sawBCB {
		t.Fatal("no BCB after consistency kill")
	}
}

func TestPartialAllocationContained(t *testing.T) {
	// Member 1's route word is so corrupted it is unusable (too few
	// bits): member 0 allocates, member 1 does not. The wired-AND sees
	// the in-use mismatch and kills the half-open connection.
	eng, g, src, _ := groupHarness(t, 2)
	src[0][0].Send(word.MakeRoute(1, 2))
	src[1][0].Send(word.MakeRoute(1, 1)) // malformed: 1 bit instead of 2
	eng.Step()
	eng.Step()
	if g.Kills() == 0 {
		t.Fatal("half-open connection not contained")
	}
	if g.Member(0).BackwardInUse() != 0 {
		t.Fatal("member 0 still holds the half-open connection")
	}
}

// splitWord slices a logical word of width w*c into its c member words.
func splitWord(logical word.Word, c, w int) []word.Word {
	out := make([]word.Word, c)
	for k := range out {
		out[k] = word.MemberWord(logical, k, mustWidth(w))
	}
	return out
}

func TestSplitMergeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		c, w int
	}{{2, 4}, {4, 4}, {2, 8}} {
		logical := word.Word{Kind: word.Data, Payload: 0xDEAD & word.Mask(mustWidth(tc.c*tc.w))}
		parts := splitWord(logical, tc.c, tc.w)
		if len(parts) != tc.c {
			t.Fatalf("c=%d: %d parts", tc.c, len(parts))
		}
		back := word.MergeWords(parts, mustWidth(tc.w))
		if back != logical {
			t.Fatalf("c=%d w=%d: %v -> %v", tc.c, tc.w, logical, back)
		}
	}
}

func TestSplitReplicatesControl(t *testing.T) {
	turn := word.Word{Kind: word.Turn}
	for _, p := range splitWord(turn, 3, 4) {
		if p.Kind != word.Turn {
			t.Fatalf("control word not replicated: %v", p)
		}
	}
	route := word.MakeRoute(3, 2)
	for _, p := range splitWord(route, 2, 4) {
		if p != route {
			t.Fatalf("route word must replicate identically: %v", p)
		}
	}
}

func TestMergeDetectsLockstepViolation(t *testing.T) {
	members := []word.Word{{Kind: word.Data, Payload: 1}, {Kind: word.DataIdle}}
	if m := word.MergeWords(members, mustWidth(4)); !m.IsEmpty() {
		t.Fatalf("kind mismatch should merge to Empty, got %v", m)
	}
}

func TestTurnThroughCascade(t *testing.T) {
	// Reverse a cascaded connection: both members inject status+checksum
	// in lockstep; the merged reply stream stays well-formed.
	eng, g, src, dst := groupHarness(t, 2)
	_ = g
	logical := []word.Word{
		word.MakeRoute(0, 2),
		{Kind: word.Data, Payload: 0x42},
		{Kind: word.Turn},
	}
	var upstream []word.Word
	for i := 0; i < 20; i++ {
		var parts []word.Word
		if i < len(logical) {
			parts = splitWord(logical[i], 2, 4)
		} else {
			parts = splitWord(word.Word{Kind: word.DataIdle}, 2, 4)
		}
		for k := 0; k < 2; k++ {
			src[k][0].Send(parts[k])
			// Hold the destination side open.
			dst[k][0].Send(word.Word{Kind: word.DataIdle})
		}
		m := word.MergeWords([]word.Word{src[0][0].Recv(), src[1][0].Recv()}, mustWidth(4))
		if !m.IsEmpty() && m.Kind != word.DataIdle {
			upstream = append(upstream, m)
		}
		eng.Step()
	}
	if len(upstream) < 3 {
		t.Fatalf("reply stream too short: %v", upstream)
	}
	if upstream[0].Kind != word.Status {
		t.Fatalf("first merged reply word = %v, want STATUS", upstream[0])
	}
	if upstream[1].Kind != word.ChecksumWord || upstream[2].Kind != word.ChecksumWord {
		t.Fatalf("merged reply = %v, want checksum words", upstream)
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
