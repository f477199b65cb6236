package core

import "testing"

// TestLog2Table holds log2's halving loop to ceil(log2(n)) against
// repeated doubling, from n <= 1, which does not halve, through the first
// value past a power of two.
func TestLog2Table(t *testing.T) {
	for n := 0; n <= 1025; n++ {
		want := 0
		for 1<<want < n {
			want++
		}
		if got := log2(n); int(got) != want {
			t.Errorf("log2(%d) = %d, want %d", n, got, want)
		}
	}
	if got := log2(-3); got != 0 {
		t.Errorf("log2(-3) = %d, want 0", got)
	}
}
