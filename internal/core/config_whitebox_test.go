package core

import "testing"

// TestLog2Table is the runtime proof of log2's guard (metrovet reads
// nothing from it): ceil(log2(n)) against repeated doubling, from the
// guarded n <= 1 through the first value past a power of two.
func TestLog2Table(t *testing.T) {
	for n := 0; n <= 1025; n++ {
		want := 0
		for 1<<want < n {
			want++
		}
		if got := log2(n); got != want {
			t.Errorf("log2(%d) = %d, want %d", n, got, want)
		}
	}
	if got := log2(-3); got != 0 {
		t.Errorf("log2(-3) = %d, want 0", got)
	}
}
