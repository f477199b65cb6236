package core

import (
	"reflect"
	"testing"

	"metro/internal/link"
	"metro/internal/prng"
	"metro/internal/word"
)

// rig is a router hand-wired to private links, stepped without an engine:
// Eval, then every link's Commit.
type rig struct {
	r     *Router
	links []*link.Link
	src   []*link.End // upstream ends of the forward links
	dst   []*link.End // downstream ends of the backward links
}

func newRig(seed uint32) *rig {
	cfg := Config{
		Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 2,
		HeaderWords: 0, DataPipe: 2, MaxVTD: 4, RandomInputs: 2, ScanPaths: 2,
	}
	g := &rig{r: NewRouter("r", cfg, DefaultSettings(cfg), prng.NewLFSR(seed))}
	for fp := 0; fp < cfg.Inputs; fp++ {
		l := link.New("f", 1)
		g.r.AttachForward(fp, l.B())
		g.src = append(g.src, l.A())
		g.links = append(g.links, l)
	}
	for bp := 0; bp < cfg.Outputs; bp++ {
		l := link.New("b", 1)
		g.r.AttachBackward(bp, l.A())
		g.dst = append(g.dst, l.B())
		g.links = append(g.links, l)
	}
	return g
}

func (g *rig) step(cycle uint64) {
	g.r.Eval(cycle)
	for _, l := range g.links {
		l.Commit(cycle)
	}
}

// TestIdleRouterIsUntouchedAndAllocatesAsFresh: the quiescent early return
// must be invisible. A router stepped through 100 idle cycles is
// field-for-field what a never-stepped twin is (reflect.DeepEqual follows
// every pointer: ports, buffers, masks, the LFSR, the attached arenas), and
// the two then serve the same contended requests identically: same backward
// ports, same LFSR state afterwards.
func TestIdleRouterIsUntouchedAndAllocatesAsFresh(t *testing.T) {
	idle, fresh := newRig(0xACE1), newRig(0xACE1)
	if !reflect.DeepEqual(idle.r, fresh.r) {
		t.Fatal("twin rigs differ before any cycle: the comparison has no baseline")
	}
	for cycle := uint64(0); cycle < 100; cycle++ {
		idle.step(cycle)
	}
	if !reflect.DeepEqual(idle.r, fresh.r) {
		t.Fatalf("100 idle cycles changed the router:\nidle  %+v\nfresh %+v", *idle.r, *fresh.r)
	}
	// Two requests for direction 0 (dilation 2: backward ports 0 and 1),
	// so the allocation draws random bits.
	for _, g := range []*rig{idle, fresh} {
		g.src[1].Send(word.MakeRoute(0, 1))
		g.src[3].Send(word.MakeRoute(0, 1))
		g.step(100) // the words cross the links
		g.step(101) // the allocation cycle
	}
	if reflect.DeepEqual(idle.r, newRig(0xACE1).r) {
		t.Fatal("two open connections left the router equal to a fresh one: DeepEqual sees too little")
	}
	for bp := 0; bp < 4; bp++ {
		if a, b := idle.r.OwnerOf(bp), fresh.r.OwnerOf(bp); a != b {
			t.Errorf("backward port %d owned by fp %d after the idle stretch, fp %d on the fresh router", bp, a, b)
		}
	}
	if idle.r.ConnectionCount() != 2 {
		t.Fatalf("ConnectionCount = %d, want 2", idle.r.ConnectionCount())
	}
	if !reflect.DeepEqual(idle.r, fresh.r) {
		t.Fatal("routers diverged after serving the same requests")
	}
	if a, b := idle.r.rng.NextBits(16), fresh.r.rng.NextBits(16); a != b {
		t.Fatalf("LFSR streams diverged: %#x after the idle stretch, %#x fresh", a, b)
	}
	for _, g := range []*rig{idle, fresh} {
		if err := g.r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
