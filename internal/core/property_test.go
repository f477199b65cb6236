package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"metro/internal/core"
	"metro/internal/word"
)

// TestAllocatorInvariantsUnderRandomTraffic drives a router with randomized
// request/hold/drop traffic from every forward port and checks the crossbar
// invariants every cycle:
//
//  1. a backward port is owned by at most one forward port,
//  2. a forward port owns at most one backward port,
//  3. every allocation lies in the requested logical direction,
//  4. disabled backward ports are never allocated.
func TestAllocatorInvariantsUnderRandomTraffic(t *testing.T) {
	cfg := core.Config{Inputs: 8, Outputs: 8, Width: 4, MaxDilation: 4,
		HeaderWords: 0, DataPipe: 1, MaxVTD: 4, RandomInputs: 2, ScanPaths: 1}

	for _, dilation := range []int{1, 2, 4} {
		set := core.DefaultSettings(cfg)
		set.Dilation = dilation
		set.BackwardEnabled &^= 1 << 3 // one port disabled throughout

		h := newHarness(cfg, set, uint32(dilation)*7+1)
		rng := rand.New(rand.NewSource(int64(dilation)))
		radix := cfg.Radix(dilation)
		bits := cfg.DirBits(dilation)

		// Per-source state: remaining words to send, requested direction.
		// After a DROP the source observes the close gap (dp+1 cycles)
		// before issuing a new ROUTE, the discipline real network
		// interfaces follow so a new request never chases a DROP into a
		// router that has not yet released the old connection.
		type srcState struct {
			active   bool
			dir      int
			left     int
			draining bool
			cooldown int
		}
		srcs := make([]srcState, cfg.Inputs)
		wantDir := make([]int, cfg.Inputs) // last requested direction per fp

		for cycle := 0; cycle < 2000; cycle++ {
			for fp := range srcs {
				s := &srcs[fp]
				switch {
				case s.draining:
					h.src[fp].Send(word.Word{Kind: word.Drop})
					s.draining = false
					s.active = false
					s.cooldown = cfg.DataPipe + 2
				case s.cooldown > 0:
					s.cooldown--
				case s.active && s.left > 0:
					h.src[fp].Send(word.Word{Kind: word.DataIdle})
					s.left--
					if s.left == 0 {
						s.draining = true
					}
				case !s.active && rng.Intn(4) == 0:
					dir := rng.Intn(radix)
					s.active = true
					s.dir = dir
					s.left = 1 + rng.Intn(10)
					wantDir[fp] = dir
					h.src[fp].Send(word.MakeRoute(uint32(dir), bits))
				}
				// BCB means the request was blocked; drop and go idle.
				if h.src[fp].RecvBCB() && s.active {
					s.draining = true
					s.left = 0
				}
			}
			h.run()

			ownerSeen := map[int]int{}
			for bp := 0; bp < cfg.Outputs; bp++ {
				owner := h.r.OwnerOf(bp)
				if owner < 0 {
					// Free (-1) or held by a detached closing flush (-2).
					continue
				}
				if prev, dup := ownerSeen[owner]; dup {
					t.Fatalf("dilation %d cycle %d: fp %d owns bp %d and %d",
						dilation, cycle, owner, prev, bp)
				}
				ownerSeen[owner] = bp
				if bp == 3 {
					t.Fatalf("dilation %d cycle %d: disabled port allocated", dilation, cycle)
				}
				gotDir := bp / h.r.Dilation()
				if gotDir != wantDir[owner] {
					t.Fatalf("dilation %d cycle %d: fp %d asked dir %d, got bp %d (dir %d)",
						dilation, cycle, owner, wantDir[owner], bp, gotDir)
				}
			}
		}
	}
}

// TestPickSharedRandomnessDeterminism verifies that two routers with
// identical configuration and LFSRs seeded alike make identical
// allocation decisions for identical request sequences — the foundation
// of width cascading.
func TestPickSharedRandomnessDeterminism(t *testing.T) {
	cfg := core.Config{Inputs: 4, Outputs: 8, Width: 4, MaxDilation: 4,
		HeaderWords: 0, DataPipe: 1, MaxVTD: 4, RandomInputs: 2, ScanPaths: 1}
	set := core.DefaultSettings(cfg) // dilation 4: radix 2

	a := newHarness(cfg, set, 404)
	b := newHarness(cfg, set, 404)

	rng := rand.New(rand.NewSource(99))
	for cycle := 0; cycle < 300; cycle++ {
		for fp := 0; fp < cfg.Inputs; fp++ {
			var w word.Word
			switch rng.Intn(3) {
			case 0:
				w = word.MakeRoute(uint32(rng.Intn(2)), 1)
			case 1:
				w = word.Word{Kind: word.DataIdle}
			case 2:
				w = word.Word{Kind: word.Drop}
			}
			a.src[fp].Send(w)
			b.src[fp].Send(w)
		}
		a.run()
		b.run()
		if a.r.BackwardInUse() != b.r.BackwardInUse() {
			t.Fatalf("cycle %d: identical routers diverged: %#x vs %#x",
				cycle, a.r.BackwardInUse(), b.r.BackwardInUse())
		}
	}
}

func TestDirBitsProperty(t *testing.T) {
	f := func(iExp, oExp, dExp uint8) bool {
		i := 1 << (iExp%4 + 1) // 2..16
		o := 1 << (oExp%4 + 1) // 2..16
		d := 1 << (dExp % 3)   // 1..4
		if d > o {
			return true
		}
		cfg := core.Config{Inputs: i, Outputs: o, Width: 8, MaxDilation: d,
			HeaderWords: 0, DataPipe: 1, MaxVTD: 4, RandomInputs: 1, ScanPaths: 1}
		if cfg.Validate() != nil {
			return true
		}
		// radix * dilation == outputs, and 2^DirBits == radix.
		r := cfg.Radix(d)
		if r*d != o {
			return false
		}
		return 1<<uint(cfg.DirBits(d)) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
