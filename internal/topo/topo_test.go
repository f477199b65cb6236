package topo

import (
	"reflect"
	"testing"
	"testing/quick"
)

func build(t *testing.T, spec Spec) *Topology {
	t.Helper()
	top, err := Build(spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return top
}

func TestPreset(t *testing.T) {
	for _, c := range []struct {
		name string
		want Spec
	}{
		{"fig1", Figure1()},
		{"fig3", Figure3()},
		{"net32", Table3Network32()},
		{"net32r8", Table3Network32Radix8()},
	} {
		if got, ok := Preset(c.name); !ok || !reflect.DeepEqual(got, c.want) {
			t.Errorf("Preset(%q) = %+v, %v", c.name, got, ok)
		}
	}
	if _, ok := Preset("fig2"); ok {
		t.Error("Preset accepted an unknown name")
	}
}

func TestFigure1Structure(t *testing.T) {
	top := build(t, Figure1())
	wantRouters := []int{8, 8, 8}
	for s, want := range wantRouters {
		if top.RoutersPerStage[s] != want {
			t.Errorf("stage %d routers = %d, want %d", s, top.RoutersPerStage[s], want)
		}
	}
	if top.RouterCount() != 24 {
		t.Errorf("RouterCount = %d, want 24", top.RouterCount())
	}
	wantBlocks := []int{1, 2, 4, 16}
	for s, want := range wantBlocks {
		if top.BlocksPerStage[s] != want {
			t.Errorf("blocks before stage %d = %d, want %d", s, top.BlocksPerStage[s], want)
		}
	}
}

func TestFigure3Structure(t *testing.T) {
	top := build(t, Figure3())
	wantRouters := []int{16, 16, 32}
	for s, want := range wantRouters {
		if top.RoutersPerStage[s] != want {
			t.Errorf("stage %d routers = %d, want %d", s, top.RoutersPerStage[s], want)
		}
	}
	if got := top.Spec.Endpoints; got != 64 {
		t.Errorf("endpoints = %d", got)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{},                                // empty
		{Endpoints: 16, EndpointLinks: 2}, // no stages
		{Endpoints: 16, EndpointLinks: 2, // radix product mismatch
			Stages: []StageSpec{{Inputs: 4, Radix: 2, Dilation: 2}}},
		{Endpoints: 16, EndpointLinks: 2, // non power of two radix
			Stages: []StageSpec{{Inputs: 4, Radix: 3, Dilation: 2}, {Inputs: 4, Radix: 4, Dilation: 1}}},
		{Endpoints: 16, EndpointLinks: 2, // stage larger than the wire supply
			Stages: []StageSpec{
				{Inputs: 64, Radix: 2, Dilation: 2},
				{Inputs: 4, Radix: 2, Dilation: 2},
				{Inputs: 4, Radix: 4, Dilation: 1}}},
		{Endpoints: 16, EndpointLinks: 4, // final stage delivers 8 links, not 4
			Stages: []StageSpec{
				{Inputs: 4, Radix: 2, Dilation: 2},
				{Inputs: 4, Radix: 2, Dilation: 2},
				{Inputs: 4, Radix: 4, Dilation: 2}}},
	}
	for i, s := range bad {
		if err := Validate(s); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

// TestValidateBoundsWireIndex checks that Validate refuses a stage with
// more wires than an int32 wire index reaches, and only such a stage: one
// router whose 2^30-dilated outputs fan into two blocks drives 2^31 wires,
// and the same shape at half the dilation drives 2^30. Neither is built.
func TestValidateBoundsWireIndex(t *testing.T) {
	spec := func(dilation int) Spec {
		return Spec{Endpoints: 4, EndpointLinks: 1, Stages: []StageSpec{
			{Inputs: 4, Radix: 2, Dilation: dilation},
			{Inputs: dilation, Radix: 2, Dilation: 1}}}
	}
	if err := Validate(spec(1 << 30)); err == nil {
		t.Error("a stage of 2^31 wires was accepted")
	}
	if err := Validate(spec(1 << 29)); err != nil {
		t.Errorf("a stage of 2^30 wires was refused: %v", err)
	}
}

func TestInjectionSpreadsEndpointLinks(t *testing.T) {
	top := build(t, Figure1())
	for e := 0; e < top.Spec.Endpoints; e++ {
		seen := map[int]bool{}
		for k := 0; k < top.Spec.EndpointLinks; k++ {
			ref := top.Inject(e, k)
			if ref.Kind != KindRouter || ref.Stage != 0 {
				t.Fatalf("endpoint %d link attached to %v", e, ref)
			}
			if seen[ref.Index] {
				t.Errorf("endpoint %d has two links on router %d", e, ref.Index)
			}
			seen[ref.Index] = true
		}
	}
}

// TestPortConservation checks that every forward port of every router is
// fed by exactly one wire, and every delivery link of every endpoint
// receives exactly one wire.
func portConservation(t *testing.T, spec Spec) {
	t.Helper()
	top := build(t, spec)
	S := len(spec.Stages)
	inCount := make([]map[[2]int]int, S) // stage -> (router,port) -> wires
	for s := range inCount {
		inCount[s] = map[[2]int]int{}
	}
	epCount := map[[2]int]int{}

	record := func(ref PortRef) {
		if ref.Kind == KindEndpoint {
			epCount[[2]int{ref.Index, ref.Port}]++
		} else {
			inCount[ref.Stage][[2]int{ref.Index, ref.Port}]++
		}
	}
	for e := 0; e < spec.Endpoints; e++ {
		for k := 0; k < spec.EndpointLinks; k++ {
			record(top.Inject(e, k))
		}
	}
	for s, st := range spec.Stages {
		for j := 0; j < top.RoutersPerStage[s]; j++ {
			for bp := 0; bp < st.Outputs(); bp++ {
				record(top.Out(s, j, bp))
			}
		}
	}
	for s, st := range spec.Stages {
		for j := 0; j < top.RoutersPerStage[s]; j++ {
			for p := 0; p < st.Inputs; p++ {
				if got := inCount[s][[2]int{j, p}]; got != 1 {
					t.Fatalf("stage %d router %d port %d fed by %d wires", s, j, p, got)
				}
			}
		}
	}
	for e := 0; e < spec.Endpoints; e++ {
		for k := 0; k < spec.EndpointLinks; k++ {
			if got := epCount[[2]int{e, k}]; got != 1 {
				t.Fatalf("endpoint %d delivery link %d fed by %d wires", e, k, got)
			}
		}
	}
}

func TestPortConservationFigure1(t *testing.T) { portConservation(t, Figure1()) }
func TestPortConservationFigure3(t *testing.T) { portConservation(t, Figure3()) }
func TestPortConservationTable3(t *testing.T)  { portConservation(t, Table3Network32()) }
func TestPortConservationRadix8(t *testing.T)  { portConservation(t, Table3Network32Radix8()) }

func TestPortConservationRandomWiring(t *testing.T) {
	spec := Figure1()
	spec.Wiring = WiringRandom
	spec.Seed = 42
	portConservation(t, spec)
}

func TestRouteDigitsRoundTrip(t *testing.T) {
	for _, spec := range []Spec{Figure1(), Figure3(), Table3Network32(), Table3Network32Radix8()} {
		top := build(t, spec)
		for dest := 0; dest < spec.Endpoints; dest++ {
			digits := top.RouteDigits(dest)
			if len(digits) != len(spec.Stages) {
				t.Fatalf("digit count %d != stages %d", len(digits), len(spec.Stages))
			}
			for s, d := range digits {
				if d < 0 || d >= spec.Stages[s].Radix {
					t.Fatalf("digit %d out of range at stage %d for dest %d", d, s, dest)
				}
			}
			if got := top.DestOf(digits); got != dest {
				t.Fatalf("DestOf(RouteDigits(%d)) = %d", dest, got)
			}
		}
	}
}

// TestAllPairsRouted follows the routing digits from every source to every
// destination through the elaborated wiring and checks arrival, for both
// wiring styles.
func TestAllPairsRouted(t *testing.T) {
	for _, wiring := range []Wiring{WiringInterleave, WiringRandom} {
		spec := Figure1()
		spec.Wiring = wiring
		spec.Seed = 7
		top := build(t, spec)
		for src := 0; src < spec.Endpoints; src++ {
			for dest := 0; dest < spec.Endpoints; dest++ {
				if n := top.PathCount(src, dest); n == 0 {
					t.Fatalf("%v wiring: no path %d -> %d", wiring, src, dest)
				}
			}
		}
	}
}

func TestFigure1PathCount(t *testing.T) {
	top := build(t, Figure1())
	// 2 injection links x dilation 2 x dilation 2 x dilation 1 = 8 paths.
	for src := 0; src < 16; src++ {
		for dest := 0; dest < 16; dest++ {
			if n := top.PathCount(src, dest); n != 8 {
				t.Fatalf("PathCount(%d,%d) = %d, want 8", src, dest, n)
			}
		}
	}
}

// TestFinalStageRouterLossTolerated reproduces the Figure 1 claim: the
// dilation-1 final stage is arranged so the complete loss of any one
// final-stage router isolates no endpoint.
func TestFinalStageRouterLossTolerated(t *testing.T) {
	for _, specFn := range []func() Spec{Figure1, Figure3} {
		spec := specFn()
		top := build(t, spec)
		last := len(spec.Stages) - 1
		for j := 0; j < top.RoutersPerStage[last]; j++ {
			dead := map[[2]int]bool{{last, j}: true}
			for src := 0; src < spec.Endpoints; src++ {
				for dest := 0; dest < spec.Endpoints; dest++ {
					if !top.Reachable(src, dest, dead) {
						t.Fatalf("killing final-stage router %d isolates %d -> %d", j, src, dest)
					}
				}
			}
		}
	}
}

// TestSingleEarlyStageRouterLossTolerated checks the multipath property for
// earlier stages too: any single router loss leaves all pairs connected.
func TestSingleEarlyStageRouterLossTolerated(t *testing.T) {
	spec := Figure1()
	top := build(t, spec)
	for s := range spec.Stages {
		for j := 0; j < top.RoutersPerStage[s]; j++ {
			dead := map[[2]int]bool{{s, j}: true}
			for src := 0; src < spec.Endpoints; src++ {
				for dest := 0; dest < spec.Endpoints; dest++ {
					if !top.Reachable(src, dest, dead) {
						t.Fatalf("killing stage %d router %d isolates %d -> %d", s, j, src, dest)
					}
				}
			}
		}
	}
}

func TestRandomWiringDeterministicPerSeed(t *testing.T) {
	spec := Figure1()
	spec.Wiring = WiringRandom
	spec.Seed = 99
	a := build(t, spec)
	if b := build(t, spec); !reflect.DeepEqual(a.next, b.next) {
		t.Fatal("same seed produced different wirings")
	}
	spec.Seed = 100
	if c := build(t, spec); reflect.DeepEqual(a.next, c.next) {
		t.Fatal("different seeds produced identical wirings")
	}
}

func TestStageOf(t *testing.T) {
	top := build(t, Figure1()) // stages of 8,8,8
	cases := []struct{ flat, stage, index int }{
		{0, 0, 0}, {7, 0, 7}, {8, 1, 0}, {15, 1, 7}, {16, 2, 0}, {23, 2, 7},
	}
	for _, c := range cases {
		s, i := top.StageOf(c.flat)
		if s != c.stage || i != c.index {
			t.Errorf("StageOf(%d) = (%d,%d), want (%d,%d)", c.flat, s, i, c.stage, c.index)
		}
	}
	if s, _ := top.StageOf(24); s != -1 {
		t.Error("StageOf out of range should return -1")
	}
}

func TestLinkCount(t *testing.T) {
	top := build(t, Figure1())
	// 32 injection + stage0 out 8*4 + stage1 out 8*4 + stage2 out 8*4 = 128.
	if got := top.LinkCount(); got != 128 {
		t.Errorf("LinkCount = %d, want 128", got)
	}
}

func TestRouteDigitsProperty(t *testing.T) {
	top := build(t, Figure3())
	f := func(d uint16) bool {
		dest := int(d) % top.Spec.Endpoints
		return top.DestOf(top.RouteDigits(dest)) == dest
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWiringString(t *testing.T) {
	if WiringInterleave.String() != "interleave" || WiringRandom.String() != "random" {
		t.Error("wiring names wrong")
	}
	if Wiring(9).String() == "" {
		t.Error("unknown wiring should format")
	}
}

func TestPortRefString(t *testing.T) {
	r := PortRef{Kind: KindRouter, Stage: 1, Index: 3, Port: 2}
	if r.String() != "s1r3.f2" {
		t.Errorf("router ref = %q", r.String())
	}
	e := PortRef{Kind: KindEndpoint, Stage: -1, Index: 5, Port: 1}
	if e.String() != "ep5.1" {
		t.Errorf("endpoint ref = %q", e.String())
	}
}
