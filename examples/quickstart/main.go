// Quickstart: build the paper's Figure 1 network (16 endpoints, two
// dilation-2 stages and a dilation-1 final stage), send one reliable
// message across it, and inspect the delivery report.
package main

import (
	"fmt"
	"log"

	"metro"
)

func main() {
	// The 16x16 multipath network of the paper's Figure 1: every endpoint
	// pair is connected by 8 distinct paths.
	top, err := metro.BuildTopology(metro.Figure1Topology())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Figure 1 network: %d endpoints, %d routers, %d links, %d paths between any pair\n",
		top.Spec.Endpoints, top.RouterCount(), top.LinkCount(), top.PathCount(6, 15))

	// Elaborate a cycle-accurate simulation of it: 8-bit channels,
	// single-cycle routers (dp=1), single-stage wires (vtd=1), fast path
	// reclamation everywhere.
	net, err := metro.BuildNetwork(metro.NetworkParams{
		Spec:        metro.Figure1Topology(),
		Width:       8,
		DataPipe:    1,
		LinkDelay:   1,
		FastReclaim: true,
		Seed:        42,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()

	// Send 20 bytes from endpoint 6 to endpoint 15. The source interface
	// builds the routing header, streams the payload with an end-to-end
	// checksum, TURNs the connection, and collects each router's STATUS
	// and CHECKSUM plus the destination's acknowledgment.
	payload := []byte("hello, short-haul net")
	res, ok := metro.SendOne(net, 6, 15, payload, 5000)
	if !ok {
		log.Fatal("no result")
	}

	fmt.Printf("delivered: %v\n", res.Delivered)
	fmt.Printf("latency:   %d cycles (injection to acknowledgment receipt)\n", res.Done-res.Injected)
	fmt.Printf("retries:   %d\n", res.Retries)
	if res.SuspectStage >= 0 {
		fmt.Printf("suspect stage: %d\n", res.SuspectStage)
	} else {
		fmt.Println("checksums:  all router checksums consistent")
	}
}
