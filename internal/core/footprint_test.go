package core_test

import (
	"runtime"
	"testing"

	"metro/internal/core"
	"metro/internal/prng"
)

// TestRouterFootprint pins what NewRouter puts on the heap: bytes (as the
// allocator rounds them to its size classes) and allocation count, for
// the 8x8 routers of `topo.Scale` and the two Figure 3 stages at dp = 1.
// docs/KERNEL.md has the per-field table the 8x8 figure sums. The
// ceilings are the measured values: growth of any per-port structure
// fails here before it shows as megabytes on a 4Ki-endpoint network.
//
// The 8x8 figure is not the 2,304 B ISSUE 22 named: the buffer backing
// (1,024), the Router struct (512), the cloned Settings (176), fin (128)
// and bLinks (64) sum to 1,904 B before the first port is counted.
func TestRouterFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	for _, tc := range []struct {
		name          string
		cfg           core.Config
		bytes, allocs uint64
	}{
		{"8x8 width 8 dp 2", core.Config{Inputs: 8, Outputs: 8, Width: 8, MaxDilation: 2, DataPipe: 2, MaxVTD: 1, RandomInputs: 2, ScanPaths: 2}, 2584, 10},
		{"Figure 3 stages 0-1: 8x8 dp 1", core.Config{Inputs: 8, Outputs: 8, Width: 8, MaxDilation: 2, DataPipe: 1, MaxVTD: 1, RandomInputs: 2, ScanPaths: 2}, 2456, 10},
		{"Figure 3 stage 2: 4x4 dp 1", core.Config{Inputs: 4, Outputs: 4, Width: 8, MaxDilation: 1, DataPipe: 1, MaxVTD: 1, RandomInputs: 2, ScanPaths: 2}, 1484, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := core.DefaultSettings(tc.cfg)
			rng := prng.NewLFSR(1)
			// The runtime's own stray allocations only ever add to a
			// trial, so the smallest of a few is NewRouter's.
			const n = 256
			keep := make([]*core.Router, 0, n)
			bytes, allocs := ^uint64(0), ^uint64(0)
			for trial := 0; trial < 5; trial++ {
				keep = keep[:0]
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < n; i++ {
					keep = append(keep, core.NewRouter("r", tc.cfg, set, rng))
				}
				runtime.ReadMemStats(&after)
				bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/n)
				allocs = min(allocs, (after.Mallocs-before.Mallocs)/n)
			}
			t.Logf("NewRouter: %d B in %d allocations", bytes, allocs)
			if bytes > tc.bytes {
				t.Errorf("NewRouter allocates %d B, ceiling %d", bytes, tc.bytes)
			}
			if allocs > tc.allocs {
				t.Errorf("NewRouter makes %d allocations, ceiling %d", allocs, tc.allocs)
			}
			runtime.KeepAlive(keep)
		})
	}
}
