// metroscan demonstrates METRO's complete on-line fault diagnosis flow
// (paper, Section 5.1, Scan Support) on a simulated network with an
// injected fault:
//
//  1. DETECT  — run traffic; end-to-end checksums NACK corrupted messages
//     and per-router checksum comparison localizes the suspect stage.
//  2. ISOLATE — disable the suspect links' port pairs over the scan
//     CONFIG register (the rest of the network keeps routing).
//  3. TEST    — drive EXTEST patterns from each upstream router's
//     boundary register and SAMPLE at the downstream router, localizing
//     the faulty link and its stuck bits.
//  4. MASK    — leave the faulty port disabled, re-enable the healthy
//     ones, and verify traffic now runs corruption-free.
//
// Usage:
//
//	metroscan                      # default fault: stuck bit 0 at s1r2
//	metroscan -stage 0 -router 3 -bit 2
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"metro"
	"metro/internal/netsim"
	"metro/internal/scan"
	"metro/internal/topo"
	"metro/internal/word"
)

func main() {
	stage := flag.Int("stage", 1, "stage of the faulty router's outputs")
	router := flag.Int("router", 2, "router index within the stage")
	bit := flag.Uint("bit", 0, "stuck-high payload bit")
	seed := flag.Int64("seed", 33, "simulation seed")
	flag.Parse()

	params := netsim.Params{
		Spec:          metro.Figure1Topology(),
		Width:         8,
		DataPipe:      1,
		LinkDelay:     1,
		FastReclaim:   true,
		Seed:          *seed,
		RetryLimit:    300,
		ListenTimeout: 200,
	}
	n, err := netsim.Build(params)
	if err != nil {
		fatal(err)
	}
	switch {
	case *stage < 0 || *stage >= len(n.Routers):
		usage("-stage %d outside [0, %d)", *stage, len(n.Routers))
	case *router < 0 || *router >= len(n.Routers[*stage]):
		usage("-router %d outside [0, %d) at stage %d", *router, len(n.Routers[*stage]), *stage)
	case *bit >= uint(params.Width):
		usage("-bit %d outside the %d-bit payload", *bit, params.Width)
	}

	// Attach scan infrastructure to every router.
	taps := make([][]*scan.MultiTAP, len(n.Routers))
	for s := range n.Routers {
		taps[s] = make([]*scan.MultiTAP, len(n.Routers[s]))
		for j := range n.Routers[s] {
			taps[s][j] = scan.NewMultiTAP(n.RouterAt(s, j), uint32(s)<<8|uint32(j))
			n.Engine.Add(taps[s][j].Boundary())
		}
	}

	// The fault: every output link of the chosen router has one payload
	// bit stuck high.
	outputs := n.RouterAt(*stage, *router).Config().Outputs
	var plan metro.FaultPlan
	for bp := 0; bp < outputs; bp++ {
		plan = append(plan, metro.FaultEvent{
			Kind: metro.FaultLinkStuckBit, Stage: *stage, Index: *router,
			Port: bp, Bit: *bit,
		})
	}
	metro.InjectFaults(n, plan)
	fmt.Printf("injected: payload bit %d stuck high on all outputs of s%dr%d\n\n",
		*bit, *stage, *router)

	// Phase 1 — detect. Payload bytes have the stuck bit clear so every
	// crossing is corrupted.
	fmt.Println("phase 1: detect via end-to-end and per-stage checksums")
	suspects := runTraffic(n)
	stages := make([]int, 0, len(suspects))
	for s := range suspects {
		stages = append(stages, s)
	}
	sort.Ints(stages) // deterministic listing; the golden test pins this output
	suspectStage := -1
	for _, s := range stages {
		if count := suspects[s]; count > 0 {
			fmt.Printf("  %d corrupted attempts localized to stage %d inputs\n", count, s)
			if suspectStage < 0 || suspects[s] > suspects[suspectStage] {
				suspectStage = s
			}
		}
	}
	if suspectStage <= 0 {
		fmt.Println("  no corruption observed — nothing to diagnose")
		return
	}
	upStage := suspectStage - 1
	fmt.Printf("  suspect: links from stage %d into stage %d\n\n", upStage, suspectStage)

	// Phase 2+3 — isolate and boundary-test every candidate link.
	fmt.Println("phase 2/3: isolate port pairs over scan and run EXTEST/SAMPLE")
	type verdict struct {
		j, bp     int
		stuckHigh uint32
	}
	var faulty []verdict
	for j := range n.Routers[upStage] {
		for bp := 0; bp < n.RouterAt(upStage, j).Config().Outputs; bp++ {
			ref := n.Topo.Out(upStage, j, bp)
			if ref.Kind != topo.KindRouter {
				continue
			}
			mask := boundaryTest(n, taps, upStage, j, bp, ref)
			if mask != 0 {
				faulty = append(faulty, verdict{j, bp, mask})
				fmt.Printf("  s%dr%d.b%d -> %v: FAULTY, stuck-high mask %#x\n",
					upStage, j, bp, ref, mask)
			}
		}
	}
	if len(faulty) == 0 {
		fmt.Println("  no link failed the boundary test")
		return
	}

	// Phase 4 — mask the faulty ports and verify.
	fmt.Println("\nphase 4: mask faulty ports over scan and verify")
	for _, f := range faulty {
		scan.SetPortEnabled(taps[upStage][f.j], n.RouterAt(upStage, f.j), true, f.bp, false)
	}
	after := runTraffic(n)
	total := 0
	for _, c := range after {
		total += c
	}
	fmt.Printf("  with %d port(s) masked: %d corrupted attempts in the verification run\n",
		len(faulty), total)
	if total == 0 {
		fmt.Println("  fault masked; system returned to service")
	}
}

// runTraffic sends a burst across the network and returns corrupted-attempt
// counts per suspect stage.
func runTraffic(n *netsim.Network) map[int]int {
	spec := n.Params.Spec
	for src := 0; src < spec.Endpoints; src++ {
		for d := 1; d <= 4; d++ {
			n.Send(src, (src+d*3)%spec.Endpoints, []byte{0x00, 0x02, 0x04, 0x06})
		}
	}
	if !n.RunUntilQuiet(2000000) {
		fatal(fmt.Errorf("network did not go quiet"))
	}
	suspects := map[int]int{}
	for _, r := range n.TakeResults() {
		if r.SuspectStage >= 0 {
			suspects[r.SuspectStage] += r.ChecksumFailures
		}
	}
	return suspects
}

// boundaryTest isolates the link (upStage, j, bp) -> ref, drives walking
// patterns from the upstream boundary register via its TAP, samples at the
// downstream router's TAP, and returns the stuck-high mask (0 = healthy).
// Ports are re-enabled afterward.
func boundaryTest(n *netsim.Network, taps [][]*scan.MultiTAP, upStage, j, bp int, ref topo.PortRef) uint32 {
	up := n.RouterAt(upStage, j)
	down := n.RouterAt(ref.Stage, ref.Index)
	upTAP := taps[upStage][j]
	downTAP := taps[ref.Stage][ref.Index]

	// Isolate the pair over the scan CONFIG register (read-modify-write
	// through the TAPs), and restore afterward the same way.
	scan.SetPortEnabled(upTAP, up, true, bp, false)
	scan.SetPortEnabled(downTAP, down, false, ref.Port, false)
	defer scan.SetPortEnabled(upTAP, up, true, bp, true)
	defer scan.SetPortEnabled(downTAP, down, false, ref.Port, true)

	dUp := scan.NewDriver(upTAP.TAPs()[0])
	dUp.Reset()
	dDown := scan.NewDriver(downTAP.TAPs()[0])
	dDown.Reset()

	width := up.Width()
	stuckHigh := word.Mask(width)
	patterns := []uint32{0, word.Mask(width)}
	for b := 0; b < width.Bits(); b++ {
		patterns = append(patterns, 1<<uint(b))
	}
	for _, p := range patterns {
		dUp.WriteRegister(scan.EXTEST, upTAP.Boundary().OutputCellBits(map[int]uint32{bp: p}))
		n.Run(3)
		img := dDown.ReadRegister(scan.SAMPLE, downTAP.Boundary().Len())
		got := downTAP.Boundary().InputCell(img, ref.Port)
		stuckHigh &= got
	}
	upTAP.Boundary().Release()
	n.Run(2)
	return stuckHigh
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "metroscan:", err)
	os.Exit(1)
}

// usage reports a flag value the network cannot serve and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "metroscan: "+format+"\n", args...)
	os.Exit(2)
}
