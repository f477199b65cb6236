// Width cascading end to end (paper, Section 5.1): a network whose logical
// routers are each built from several narrow components running in
// lockstep on shared random bits, with the wired-AND IN-USE check
// containing faults.
//
// The example measures the bandwidth effect of cascading on real message
// traffic — the cycle-domain analogue of Table 3's cascade rows — and then
// corrupts a single lane to show per-lane checksum detection and recovery.
package main

import (
	"fmt"
	"log"

	"metro"
)

func main() {
	fmt.Println("logical routers from 4-bit components, Figure 1 network, 40-byte messages")
	var base uint64
	for _, c := range []int{1, 2, 4} {
		net, err := metro.BuildNetwork(metro.NetworkParams{
			Spec:         metro.Figure1Topology(),
			Width:        4,
			CascadeWidth: c,
			FastReclaim:  true,
			Seed:         5,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, ok := metro.SendOne(net, 1, 14, make([]byte, 40), 5000)
		net.Close()
		if !ok || !res.Delivered {
			log.Fatalf("c=%d delivery failed", c)
		}
		lat := res.Done - res.Injected
		if c == 1 {
			base = lat
		}
		fmt.Printf("  cascade %d (logical width %2d bits): %3d cycles  (%.2fx)\n",
			c, 4*c, lat, float64(base)/float64(lat))
	}

	// Lane fault: bit 0 of one lane of every output of a stage-0 router is
	// stuck. Per-lane checksums catch the corruption, the destination
	// NACKs, and stochastic retries find clean paths.
	fmt.Println("\nsingle-lane stuck bit on one router's outputs:")
	net, err := metro.BuildNetwork(metro.NetworkParams{
		Spec:          metro.Figure1Topology(),
		Width:         4,
		CascadeWidth:  2,
		FastReclaim:   true,
		Seed:          6,
		RetryLimit:    300,
		ListenTimeout: 200,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()
	// Fault plans target lane 0; reach lane 1 through the network's lane
	// accessors is internal, so corrupt lane 0 of each output link here.
	var plan metro.FaultPlan
	for bp := 0; bp < 4; bp++ {
		plan = append(plan, metro.FaultEvent{
			Kind: metro.FaultLinkStuckBit, Stage: 0, Index: 1, Port: bp, Bit: 0,
		})
	}
	metro.InjectFaults(net, plan)

	sent, delivered, corrupted := 0, 0, 0
	for src := 0; src < 16; src++ {
		for d := 1; d <= 3; d++ {
			net.Send(src, (src+d*5)%16, []byte{0x00, 0x02, 0x04, 0x06})
			sent++
		}
	}
	if !net.RunUntilQuiet(1000000) {
		log.Fatal("network did not go quiet")
	}
	for _, r := range net.TakeResults() {
		if r.Delivered {
			delivered++
		}
		corrupted += r.ChecksumFailures
	}
	fmt.Printf("  %d/%d messages delivered; %d corrupted attempts detected by\n",
		delivered, sent, corrupted)
	fmt.Println("  per-lane checksums and recovered by stochastic retry")
}
