package prng

import (
	"testing"
	"testing/quick"
)

func TestLFSRDeterminism(t *testing.T) {
	a := NewLFSR(42)
	b := NewLFSR(42)
	for i := 0; i < 1000; i++ {
		if a.NextBit() != b.NextBit() {
			t.Fatalf("same-seed LFSRs diverged at bit %d", i)
		}
	}
}

func TestLFSRZeroSeedRemapped(t *testing.T) {
	l := NewLFSR(0)
	if l.state == 0 {
		t.Fatal("zero seed not remapped")
	}
}

func TestLFSRNeverSticksAtZero(t *testing.T) {
	l := NewLFSR(1)
	for i := 0; i < 100000; i++ {
		l.NextBit()
		if l.state == 0 {
			t.Fatalf("LFSR reached all-zero state after %d bits", i)
		}
	}
}

func TestLFSRBitBalance(t *testing.T) {
	l := NewLFSR(0xdeadbeef)
	ones := 0
	const n = 100000
	for i := 0; i < n; i++ {
		ones += int(l.NextBit())
	}
	frac := float64(ones) / n
	if frac < 0.48 || frac > 0.52 {
		t.Errorf("bit balance %f outside [0.48, 0.52]", frac)
	}
}

// TestNextBitsWidthAndClamp is the runtime proof of NextBits's clamp
// (metrovet reads nothing from its guards): at and around both ends of
// [0, 32] the LFSR returns exactly the first min(max(n, 0), 32) bits,
// first bit in the LSB, and consumes exactly that many.
func TestNextBitsWidthAndClamp(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 31, 32, 33, 40} {
		taken := min(max(n, 0), 32)
		ref := NewLFSR(7)
		var want, rest uint32
		for i := 0; i < taken; i++ {
			want |= ref.NextBit() << i
		}
		for i := 0; i < 16; i++ { // what NextBits(n) must leave unread
			rest |= ref.NextBit() << i
		}
		l := NewLFSR(7)
		if got := l.NextBits(n); got != want {
			t.Errorf("NextBits(%d) = %#x, want %#x", n, got, want)
		}
		if got := l.NextBits(16); got != rest {
			t.Errorf("NextBits(%d) did not consume exactly %d bits", n, taken)
		}
	}
}

func TestNextBitsOrdering(t *testing.T) {
	a := NewLFSR(99)
	b := NewLFSR(99)
	bits := make([]uint32, 8)
	for i := range bits {
		bits[i] = a.NextBit()
	}
	var want uint32
	for i, bit := range bits {
		want |= bit << uint(i)
	}
	if got := b.NextBits(8); got != want {
		t.Errorf("NextBits(8) = %#x, want %#x (first bit in LSB)", got, want)
	}
}

// TestSharedInterleavedConsumption: a member that falls behind (its
// lane drew nothing for a while) later reads the bits the leader read.
func TestSharedInterleavedConsumption(t *testing.T) {
	f1, f2 := NewLFSR(77), NewLFSR(77)
	ahead := make([]uint32, 100)
	for i := range ahead {
		ahead[i] = f1.NextBits(3)
	}
	for i := range ahead {
		if got := f2.NextBits(3); got != ahead[i] {
			t.Fatalf("lagging member saw %#x at %d, leader saw %#x", got, i, ahead[i])
		}
	}
}

func TestLFSRPeriodIsLong(t *testing.T) {
	// The state must not recur within a modest window (maximal-length
	// 32-bit LFSRs have period 2^32-1; we just sanity-check no short cycle).
	l := NewLFSR(1)
	start := l.state
	for i := 0; i < 1<<16; i++ {
		l.NextBit()
		if l.state == start {
			t.Fatalf("LFSR state recurred after %d steps", i+1)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	f := func(s1, s2 uint32) bool {
		if s1 == s2 {
			return true
		}
		a, b := NewLFSR(s1), NewLFSR(s2)
		for i := 0; i < 64; i++ {
			if a.NextBit() != b.NextBit() {
				return true
			}
		}
		return false // 64 identical bits from different seeds: suspicious
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
