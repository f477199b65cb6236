package core_test

import (
	"runtime"
	"testing"

	"metro/internal/core"
)

// TestRouterFootprint pins what a router puts on the heap: bytes (as the
// allocator rounds them to its size classes) and allocation count, for the
// 8x8 routers of `topo.Scale` and the two Figure 3 stages at dp = 1. Two
// forms are measured: a router of a built network, made from its stage's
// shared Shape (Shape.NewRouter), and a hand-wired one, a stage of one that
// also makes its Shape and the Settings copy in it (NewRouter). docs/KERNEL.md
// has the per-field table the 8x8 figures sum. The ceilings are the
// measured values: growth of any per-port structure fails here before it
// shows as megabytes on a 4Ki-endpoint network.
//
// The 8x8 network router is the buffer backing (320: a set of dp + 3
// words per backward port, 8 of them), the Router struct (256), fin (128), bLinks (128: an End by value
// per backward port, as fin holds per forward port) and the port
// arrays (fwd 256, closers 192, busyBy 8); NewRouter adds the
// Shape (160: 152 of Config and Settings, then the width byte, in the
// allocator's 160 B class) and the turn delays of its Settings copy (128).
func TestRouterFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	type ceiling struct{ bytes, allocs uint64 }
	for _, tc := range []struct {
		name          string
		cfg           core.Config
		shared, alone ceiling
	}{
		{"8x8 width 8 dp 2", core.Config{Inputs: 8, Outputs: 8, Width: 8, MaxDilation: 2, DataPipe: 2, MaxVTD: 1, RandomInputs: 2, ScanPaths: 2}, ceiling{1288, 7}, ceiling{1576, 9}},
		{"Figure 3 stages 0-1: 8x8 dp 1", core.Config{Inputs: 8, Outputs: 8, Width: 8, MaxDilation: 2, DataPipe: 1, MaxVTD: 1, RandomInputs: 2, ScanPaths: 2}, ceiling{1224, 7}, ceiling{1512, 9}},
		{"Figure 3 stage 2: 4x4 dp 1", core.Config{Inputs: 4, Outputs: 4, Width: 8, MaxDilation: 1, DataPipe: 1, MaxVTD: 1, RandomInputs: 2, ScanPaths: 2}, ceiling{740, 7}, ceiling{964, 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := core.DefaultSettings(tc.cfg)
			sh, err := core.NewShape(tc.cfg, set)
			if err != nil {
				t.Fatal(err)
			}
			for _, form := range []struct {
				name  string
				build func() *core.Router
				max   ceiling
			}{
				{"Shape.NewRouter", func() *core.Router { return sh.NewRouter("r", 1) }, tc.shared},
				{"NewRouter", func() *core.Router { return core.NewRouter("r", tc.cfg, set, 1) }, tc.alone},
			} {
				bytes, allocs := footprint(form.build)
				t.Logf("%s: %d B in %d allocations", form.name, bytes, allocs)
				if bytes > form.max.bytes {
					t.Errorf("%s allocates %d B, ceiling %d", form.name, bytes, form.max.bytes)
				}
				if allocs > form.max.allocs {
					t.Errorf("%s makes %d allocations, ceiling %d", form.name, allocs, form.max.allocs)
				}
			}
		})
	}
}

// footprint returns the heap bytes and allocations one call of build costs.
// The runtime's own stray allocations only ever add to a trial, so the
// smallest of a few is build's.
func footprint(build func() *core.Router) (bytes, allocs uint64) {
	const n = 256
	keep := [n]*core.Router{}
	bytes, allocs = ^uint64(0), ^uint64(0)
	for trial := 0; trial < 5; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = build()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/n)
		allocs = min(allocs, (after.Mallocs-before.Mallocs)/n)
	}
	runtime.KeepAlive(keep)
	return bytes, allocs
}
