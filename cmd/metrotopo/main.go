// metrotopo inspects multipath multistage topologies: router counts, path
// multiplicity, routing digits, and structural fault tolerance.
//
// Usage:
//
//	metrotopo                       # describe the Figure 1 network
//	metrotopo -network fig3
//	metrotopo -paths 6,15           # enumerate paths between two endpoints
//	metrotopo -survive              # single-router-loss reachability audit
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"metro"
	"metro/internal/stats"
	"metro/internal/topo"
)

func main() {
	network := flag.String("network", "fig1", "topology: fig1, fig3, net32, net32r8")
	paths := flag.String("paths", "", "src,dest pair to count paths for")
	survive := flag.Bool("survive", false, "audit single-router-loss reachability")
	wiring := flag.String("wiring", "interleave", "wiring: interleave or random")
	seed := flag.Int64("seed", 1, "seed for random wiring")
	flag.Parse()

	spec, ok := topo.Preset(*network)
	if !ok {
		fmt.Fprintf(os.Stderr, "metrotopo: unknown network %q\n", *network)
		os.Exit(2)
	}
	if *wiring == "random" {
		spec.Wiring = metro.WiringRandom
		spec.Seed = *seed
	}

	top, err := metro.BuildTopology(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metrotopo: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("network %s: %d endpoints x %d links, %s wiring\n",
		*network, spec.Endpoints, spec.EndpointLinks, spec.Wiring)
	t := stats.Table{Header: []string{"stage", "routers", "geometry", "dilation", "blocks"}}
	for s, st := range spec.Stages {
		t.Add(
			fmt.Sprintf("%d", s),
			fmt.Sprintf("%d", top.RoutersPerStage[s]),
			fmt.Sprintf("%dx%d", st.Inputs, st.Outputs()),
			fmt.Sprintf("%d", st.Dilation),
			fmt.Sprintf("%d", top.BlocksPerStage[s]),
		)
	}
	fmt.Print(t.String())
	fmt.Printf("total: %d routers, %d links, %d paths between each endpoint pair\n",
		top.RouterCount(), top.LinkCount(), top.PathCount(0, spec.Endpoints-1))

	if *paths != "" {
		parts := strings.Split(*paths, ",")
		if len(parts) != 2 {
			fmt.Fprintln(os.Stderr, "metrotopo: -paths wants src,dest")
			os.Exit(2)
		}
		src, _ := strconv.Atoi(strings.TrimSpace(parts[0]))
		dest, _ := strconv.Atoi(strings.TrimSpace(parts[1]))
		fmt.Printf("paths %d -> %d: %d (routing digits %v)\n",
			src, dest, top.PathCount(src, dest), top.RouteDigits(dest))
	}

	if *survive {
		fmt.Println("single-router-loss audit:")
		total, isolated := 0, 0
		for s := range spec.Stages {
			for j := 0; j < top.RoutersPerStage[s]; j++ {
				total++
				dead := map[[2]int]bool{{s, j}: true}
				ok := true
			pairs:
				for src := 0; src < spec.Endpoints; src++ {
					for dest := 0; dest < spec.Endpoints; dest++ {
						if !top.Reachable(src, dest, dead) {
							ok = false
							break pairs
						}
					}
				}
				if !ok {
					isolated++
					fmt.Printf("  losing s%dr%d isolates some endpoint pair\n", s, j)
				}
			}
		}
		if isolated == 0 {
			fmt.Printf("  all %d single-router losses tolerated: every endpoint pair stays connected\n", total)
		}
	}
}
