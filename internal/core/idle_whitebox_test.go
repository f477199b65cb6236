package core

import (
	"reflect"
	"strings"
	"testing"

	"metro/internal/link"
	"metro/internal/word"
)

// rig is a router hand-wired to private links, stepped without an engine:
// Eval, then every link's Commit.
type rig struct {
	r     *Router
	links []link.Link
	src   []link.End // upstream ends of the forward links
	dst   []link.End // downstream ends of the backward links
}

func newRig(seed uint32) *rig {
	cfg := Config{
		Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 2,
		HeaderWords: 0, DataPipe: 2, MaxVTD: 4, RandomInputs: 2, ScanPaths: 2,
	}
	g := &rig{r: NewRouter("r", cfg, DefaultSettings(cfg), seed)}
	// The links are unnamed arenas of one: a namer is a func, which
	// reflect.DeepEqual never finds equal.
	for fp := 0; fp < cfg.Inputs; fp++ {
		l := link.NewArena(1, 1).Place(0, 1)
		g.r.AttachForward(fp, l.B())
		g.src = append(g.src, l.A())
		g.links = append(g.links, l)
	}
	for bp := 0; bp < cfg.Outputs; bp++ {
		l := link.NewArena(1, 1).Place(0, 1)
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

// TestSetTurnDelay: the in-place turn-delay write lands in the Table 2
// register and nowhere else, and a rejected write (port or delay out of
// range) changes nothing: not the register file, not the enabled and live
// masks the idle path reads.
func TestSetTurnDelay(t *testing.T) {
	g := newRig(0xACE1)
	cfg := g.r.Config()
	ports := cfg.Inputs + cfg.Outputs
	// One open connection, so live is not trivially zero.
	g.src[2].Send(word.MakeRoute(1, 1))
	g.step(0)
	g.step(1)
	if g.r.ConnectionCount() != 1 {
		t.Fatalf("ConnectionCount = %d, want 1", g.r.ConnectionCount())
	}
	g.r.SetForwardEnabled(3, false)
	enabled, live := g.r.enabled, g.r.live

	for _, w := range []struct{ port, delay int }{{0, cfg.MaxVTD}, {cfg.Inputs, 2}, {ports - 1, 0}, {2, 1}} {
		if err := g.r.SetTurnDelay(w.port, w.delay); err != nil {
			t.Fatalf("SetTurnDelay(%d, %d): %v", w.port, w.delay, err)
		}
		if got := g.r.Settings().TurnDelay[w.port]; got != w.delay {
			t.Errorf("TurnDelay[%d] = %d after SetTurnDelay(%d, %d)", w.port, got, w.port, w.delay)
		}
	}
	before := g.r.Settings()
	for _, w := range []struct {
		port, delay int
		want        string
	}{
		{-1, 1, "port -1"},
		{ports, 1, "port 8"},
		{0, -1, "TurnDelay[0] = -1"},
		{ports - 1, cfg.MaxVTD + 1, "max_vtd=4"},
	} {
		err := g.r.SetTurnDelay(w.port, w.delay)
		if err == nil || !strings.Contains(err.Error(), w.want) {
			t.Errorf("SetTurnDelay(%d, %d) = %v, want an error mentioning %q", w.port, w.delay, err, w.want)
		}
	}
	if after := g.r.Settings(); !reflect.DeepEqual(before, after) {
		t.Errorf("rejected writes changed the settings:\nbefore %+v\nafter  %+v", before, after)
	}
	if g.r.enabled != enabled || g.r.live != live {
		t.Errorf("masks moved: enabled %#x -> %#x, live %#x -> %#x", enabled, g.r.enabled, live, g.r.live)
	}
	if err := g.r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
