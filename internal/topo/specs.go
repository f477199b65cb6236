package topo

import "fmt"

// Scale returns a Figure 3-family network scaled to the given endpoint
// count: log_radix(endpoints) stages, all but the last built from
// 2r-input radix-r dilation-2 routers and the final stage from r-input
// radix-r dilation-1 routers, with two network connections per endpoint.
// Scale(64, 4) reproduces Figure3's structure exactly; larger powers of
// the radix extend the same construction (Scale(65536, 4) is the eight-
// stage, 64Ki-endpoint instance the kernel scaling curve measures).
//
// endpoints must be a positive power of radix and radix a power of two
// >= 2, mirroring Validate's per-stage constraints.
func Scale(endpoints, radix int) (Spec, error) {
	if radix < 2 || !isPow2(radix) {
		return Spec{}, fmt.Errorf("topo: scale radix must be a power of two >= 2, got %d", radix)
	}
	stages := 0
	for span := 1; span < endpoints; span *= radix {
		stages++
	}
	prod := 1
	for s := 0; s < stages; s++ {
		prod *= radix
	}
	if stages == 0 || prod != endpoints {
		return Spec{}, fmt.Errorf("topo: %d endpoints is not a positive power of radix %d", endpoints, radix)
	}
	spec := Spec{
		Endpoints:     endpoints,
		EndpointLinks: 2,
		Wiring:        WiringInterleave,
		Stages:        make([]StageSpec, stages),
	}
	for s := 0; s < stages-1; s++ {
		spec.Stages[s] = StageSpec{Inputs: 2 * radix, Radix: radix, Dilation: 2}
	}
	spec.Stages[stages-1] = StageSpec{Inputs: radix, Radix: radix, Dilation: 1}
	return spec, nil
}

// Preset returns the canonical topology a command-line name stands for:
// "fig1" (Figure1), "fig3" (Figure3), "net32" (Table3Network32) or
// "net32r8" (Table3Network32Radix8). ok is false for any other name.
func Preset(name string) (spec Spec, ok bool) {
	switch name {
	case "fig1":
		return Figure1(), true
	case "fig3":
		return Figure3(), true
	case "net32":
		return Table3Network32(), true
	case "net32r8":
		return Table3Network32Radix8(), true
	}
	return Spec{}, false
}

// Figure1 returns the 16x16 multipath network of the paper's Figure 1:
// two stages of 4x2 (inputs x radix) dilation-2 routers followed by a
// stage of 4x4 dilation-1 routers, with two network connections per
// endpoint. Losing any single final-stage router isolates no endpoint.
func Figure1() Spec {
	return Spec{
		Endpoints:     16,
		EndpointLinks: 2,
		Stages: []StageSpec{
			{Inputs: 4, Radix: 2, Dilation: 2},
			{Inputs: 4, Radix: 2, Dilation: 2},
			{Inputs: 4, Radix: 4, Dilation: 1},
		},
		Wiring: WiringInterleave,
	}
}

// Figure3 returns the 3-stage, radix-4 network simulated in the paper's
// Figure 3: the first two stages are 8x8 routers configured in dilation-2
// (radix-4) mode, the final stage runs dilation-1 radix-4; 64 endpoints
// with two network connections each.
func Figure3() Spec {
	return Spec{
		Endpoints:     64,
		EndpointLinks: 2,
		Stages: []StageSpec{
			{Inputs: 8, Radix: 4, Dilation: 2},
			{Inputs: 8, Radix: 4, Dilation: 2},
			{Inputs: 4, Radix: 4, Dilation: 1},
		},
		Wiring: WiringInterleave,
	}
}

// Table3Network32 returns the 32-node multibutterfly used for the t20,32
// application-latency estimates of Table 3 when built from METROJR-class
// 4x4 routers: three dilation-2 radix-2 stages and a final dilation-1
// radix-4 stage (4 routing stages total, as the Table 3 rows assume).
func Table3Network32() Spec {
	return Spec{
		Endpoints:     32,
		EndpointLinks: 2,
		Stages: []StageSpec{
			{Inputs: 4, Radix: 2, Dilation: 2},
			{Inputs: 4, Radix: 2, Dilation: 2},
			{Inputs: 4, Radix: 2, Dilation: 2},
			{Inputs: 4, Radix: 4, Dilation: 1},
		},
		Wiring: WiringInterleave,
	}
}

// Table3Network32Radix8 returns the 2-stage 32-node network assumed for
// the Table 3 rows built from 8x8 METRO routers: a dilation-2 radix-4
// stage followed by a dilation-1 radix-8 stage.
func Table3Network32Radix8() Spec {
	return Spec{
		Endpoints:     32,
		EndpointLinks: 2,
		Stages: []StageSpec{
			{Inputs: 8, Radix: 4, Dilation: 2},
			{Inputs: 8, Radix: 8, Dilation: 1},
		},
		Wiring: WiringInterleave,
	}
}
