package core

import (
	"testing"

	"metro/internal/link"
	"metro/internal/word"
)

// TestBufferSetsRoundTrip closes connections back to back on every
// backward port, over and over, and checks after every cycle, and once the
// flushes have drained, that each of the Inputs+Outputs buffer sets has
// exactly one holder (CheckInvariants' buffer-set clause: a port, a closer
// or a free closer slot). This is the case the
// old spare pool's "unreachable fallback" make() stood behind: with a
// closer in flight on every backward port but one, a further detach must
// still find a free set. It does, by counting (detach's comment), so the
// fallback is deleted and not replaced; reslicing past the closers'
// capacity would panic here.
func TestBufferSetsRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"4x4 dilation 1 dp 1", Config{Inputs: 4, Outputs: 4, Width: 8, MaxDilation: 1, DataPipe: 1, MaxVTD: 1, RandomInputs: 1, ScanPaths: 1}},
		{"4x4 dilation 2 dp 3", Config{Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 2, DataPipe: 3, MaxVTD: 1, RandomInputs: 1, ScanPaths: 1}},
		{"8x8 dilation 2 dp 2", Config{Inputs: 8, Outputs: 8, Width: 8, MaxDilation: 2, DataPipe: 2, MaxVTD: 1, RandomInputs: 2, ScanPaths: 1}},
		{"2x8 dilation 4 dp 2", Config{Inputs: 2, Outputs: 8, Width: 8, MaxDilation: 4, DataPipe: 2, MaxVTD: 1, RandomInputs: 2, ScanPaths: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			r := NewRouter("rt", cfg, DefaultSettings(cfg), 0xACE1)
			var links []*link.Link
			var src []link.End
			for fp := 0; fp < cfg.Inputs; fp++ {
				l := link.New("f", 1)
				r.AttachForward(fp, l.B())
				src = append(src, l.A())
				links = append(links, l)
			}
			for bp := 0; bp < cfg.Outputs; bp++ {
				l := link.New("b", 1)
				r.AttachBackward(bp, l.A())
				links = append(links, l)
			}
			cycle := uint64(0)
			step := func() {
				r.Eval(cycle)
				for _, l := range links {
					l.Commit(cycle)
				}
				cycle++
				if err := r.CheckInvariants(); err != nil {
					t.Fatalf("cycle %d: %v", cycle, err)
				}
			}
			dirBits := r.DirBits()
			maxClosers := 0
			// Every forward port opens a connection (directions spread
			// over the radix), streams two words and drops; the next
			// round's ROUTE follows the DROP with no gap, so closers from
			// one round are still flushing when the next round detaches.
			for round := 0; round < 3*cfg.Outputs; round++ {
				for _, phase := range []func(fp int) word.Word{
					func(fp int) word.Word { return word.MakeRoute(uint32((fp+round)%r.Radix()), dirBits) },
					func(fp int) word.Word { return word.MakeData(uint32(fp), mustWidth(cfg.Width)) },
					func(fp int) word.Word { return word.MakeData(uint32(round), mustWidth(cfg.Width)) },
					func(fp int) word.Word { return word.Word{Kind: word.Drop} },
				} {
					for fp := range src {
						src[fp].Send(phase(fp))
					}
					step()
					if n := r.ClosingCount(); n > maxClosers {
						maxClosers = n
					}
				}
			}
			if maxClosers < 2 {
				t.Fatalf("at most %d closer(s) in flight: the schedule never overlaps closes", maxClosers)
			}
			for i := 0; i < cfg.DataPipe+16; i++ {
				step()
			}
			if r.ClosingCount() != 0 || r.ConnectionCount() != 0 {
				t.Fatalf("router did not drain: %d closers, %d connections", r.ClosingCount(), r.ConnectionCount())
			}
			// Drained, and the audit in step() passed: the forward ports
			// hold Inputs sets, so the closer slots park the other Outputs.
			t.Logf("up to %d closers in flight; all %d sets accounted for", maxClosers, cfg.Inputs+cfg.Outputs)
		})
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
