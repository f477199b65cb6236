package topo

import (
	"reflect"
	"testing"
)

// TestScaleMatchesFigure3 pins Scale's construction to the published
// Figure 3 network: the radix-4, 64-endpoint instance must be identical.
func TestScaleMatchesFigure3(t *testing.T) {
	spec, err := Scale(64, 4)
	if err != nil {
		t.Fatalf("Scale(64, 4): %v", err)
	}
	if !reflect.DeepEqual(spec, Figure3()) {
		t.Fatalf("Scale(64, 4) = %+v, want Figure3 %+v", spec, Figure3())
	}
}

// TestScaleValidates builds several points of the radix sweep and checks
// the structural invariants hold at every size.
func TestScaleValidates(t *testing.T) {
	cases := []struct{ endpoints, radix, stages int }{
		{4, 4, 1},
		{16, 4, 2},
		{16, 2, 4},
		{64, 8, 2},
		{256, 4, 4},
		{4096, 4, 6},
		{65536, 4, 8},
		{65536, 16, 4},
	}
	for _, c := range cases {
		spec, err := Scale(c.endpoints, c.radix)
		if err != nil {
			t.Errorf("Scale(%d, %d): %v", c.endpoints, c.radix, err)
			continue
		}
		if len(spec.Stages) != c.stages {
			t.Errorf("Scale(%d, %d): %d stages, want %d", c.endpoints, c.radix, len(spec.Stages), c.stages)
		}
		if err := Validate(spec); err != nil {
			t.Errorf("Scale(%d, %d) fails Validate: %v", c.endpoints, c.radix, err)
		}
	}
}

// TestScaleWiring elaborates a couple of small scaled networks and reuses
// the port-conservation audit applied to the published specs.
func TestScaleWiring(t *testing.T) {
	for _, c := range []struct{ endpoints, radix int }{{16, 2}, {256, 4}, {64, 8}} {
		spec, err := Scale(c.endpoints, c.radix)
		if err != nil {
			t.Fatalf("Scale(%d, %d): %v", c.endpoints, c.radix, err)
		}
		portConservation(t, spec)
	}
}

// TestScaleRejectsBadShapes covers the argument validation.
func TestScaleRejectsBadShapes(t *testing.T) {
	bad := []struct{ endpoints, radix int }{
		{48, 4},  // not a power of the radix
		{64, 3},  // radix not a power of two
		{64, 1},  // radix too small
		{1, 4},   // no stages
		{0, 2},   // no endpoints
		{-16, 4}, // negative
	}
	for _, c := range bad {
		if _, err := Scale(c.endpoints, c.radix); err == nil {
			t.Errorf("Scale(%d, %d): expected error", c.endpoints, c.radix)
		}
	}
}

// TestBuildAllocatesPerStage pins Build to O(stages) allocations: the
// wiring is one int32 array per stage plus one scratch list, and the
// injection wiring is arithmetic. The six-stage 4Ki-endpoint network
// takes 11; it took 22,195 when every attachment was a PortRef in a slice
// per router and per endpoint.
func TestBuildAllocatesPerStage(t *testing.T) {
	const ceiling = 32
	spec, err := Scale(4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Build(Scale(4096, 4)): %.0f allocations", allocs)
	if allocs > ceiling {
		t.Fatalf("Build(Scale(4096, 4)) makes %.0f allocations, ceiling %d", allocs, ceiling)
	}
}
