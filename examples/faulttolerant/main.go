// Fault tolerance walkthrough: dynamic faults strike a running METRO
// network; source-responsible retry plus stochastic path selection route
// around them; checksum comparison localizes a corrupting link; and a
// scan-driven port disable masks it permanently (paper, Sections 4, 5.1).
package main

import (
	"fmt"
	"log"

	"metro"
)

func main() {
	spec := metro.Figure1Topology()
	net, err := metro.BuildNetwork(metro.NetworkParams{
		Spec:          spec,
		Width:         8,
		DataPipe:      1,
		LinkDelay:     1,
		FastReclaim:   true,
		Seed:          99,
		RetryLimit:    300,
		ListenTimeout: 200,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()

	// Phase 1 — dynamic router losses under traffic. Kill two dilated-
	// stage routers while all-pairs traffic flows; every message must
	// still deliver.
	plan := metro.FaultPlan{
		{At: 150, Kind: metro.FaultRouterKill, Stage: 0, Index: 3},
		{At: 400, Kind: metro.FaultRouterKill, Stage: 1, Index: 6},
	}
	metro.InjectFaults(net, plan)
	sent := 0
	for src := 0; src < spec.Endpoints; src++ {
		for d := 1; d <= 3; d++ {
			net.Send(src, (src+d*5)%spec.Endpoints, []byte{byte(src), byte(d)})
			sent++
		}
	}
	if !net.RunUntilQuiet(1000000) {
		log.Fatal("network did not go quiet")
	}
	delivered, retries, timeouts := 0, 0, 0
	for _, r := range net.TakeResults() {
		if r.Delivered {
			delivered++
		}
		retries += r.Retries
		timeouts += r.Timeouts
	}
	fmt.Printf("phase 1: %d/%d messages delivered across 2 dynamic router losses "+
		"(%d retries, %d watchdog recoveries)\n", delivered, sent, retries, timeouts)

	// Phase 2 — a stuck bit on one stage-0 output link. Traffic crossing
	// it is corrupted; end-to-end checksums catch it, retries avoid the
	// link stochastically, and the per-stage checksum comparison points
	// the finger at the right stage.
	net2, err := metro.BuildNetwork(metro.NetworkParams{
		Spec: spec, Width: 8, DataPipe: 1, LinkDelay: 1,
		FastReclaim: true, Seed: 5, RetryLimit: 300, ListenTimeout: 200,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer net2.Close()
	// Every output of stage-0 router 1 drives through a faulty connector:
	// bit 0 of each link is stuck high.
	var stuck metro.FaultPlan
	for port := 0; port < 4; port++ {
		stuck = append(stuck, metro.FaultEvent{
			At: 0, Kind: metro.FaultLinkStuckBit, Stage: 0, Index: 1, Port: port, Bit: 0,
		})
	}
	metro.InjectFaults(net2, stuck)
	suspects := map[int]int{}
	cksumFailures := 0
	for src := 0; src < spec.Endpoints; src++ {
		for d := 1; d <= 4; d++ {
			// Several messages per source so both injection links (and
			// hence the faulty router) carry traffic.
			net2.Send(src, (src+d*3)%spec.Endpoints, []byte{0x00, 0x02, 0x04, 0x06})
		}
	}
	if !net2.RunUntilQuiet(1000000) {
		log.Fatal("phase 2 did not go quiet")
	}
	for _, r := range net2.TakeResults() {
		cksumFailures += r.ChecksumFailures
		if r.SuspectStage >= 0 {
			suspects[r.SuspectStage]++
		}
	}
	fmt.Printf("phase 2: stuck bit caused %d corrupted attempts; "+
		"checksum comparison localized them to stage(s) %v\n", cksumFailures, keys(suspects))

	// Phase 3 — diagnose and mask. Isolate the suspect link's port over
	// scan, boundary-test it, confirm the stuck bit, and leave it
	// disabled: traffic now flows with zero corruption.
	router := net2.RouterAt(0, 1)
	mt := metro.NewMultiTAP(router, 0x0001A001)
	reg := metro.NewSettingsRegister(router)
	bits, _ := mt.ReadSettings(reg.Len())
	_ = bits
	router.SetBackwardEnabled(2, false) // as a CONFIG scan load would
	isolated := net2.OutLink(0, 1, 2)
	diag := metro.LoopbackTest(&isolated, 8, nil)
	fmt.Printf("phase 3: boundary test of isolated link: passed=%v stuck-high mask=%#x\n",
		diag.Passed, diag.StuckHigh)

	// Mask the remaining faulty outputs of the router as well, as the
	// diagnosis sweep would after testing each isolated port.
	for port := 0; port < 4; port++ {
		router.SetBackwardEnabled(port, false)
	}
	sent3 := 0
	for src := 0; src < spec.Endpoints; src++ {
		for d := 1; d <= 4; d++ {
			net2.Send(src, (src+d*3)%spec.Endpoints, []byte{0x00, 0x02, 0x04, 0x06})
			sent3++
		}
	}
	if !net2.RunUntilQuiet(1000000) {
		log.Fatal("phase 3 did not go quiet")
	}
	bad := 0
	deliveredMasked := 0
	for _, r := range net2.TakeResults() {
		if r.Delivered {
			deliveredMasked++
		}
		bad += r.ChecksumFailures
	}
	fmt.Printf("phase 3: with the faulty router's ports masked, %d/%d delivered with %d corrupted attempts\n",
		deliveredMasked, sent3, bad)
}

func keys(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
