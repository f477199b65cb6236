// Stateless-network demonstration (paper, Section 2, circuit switching
// advantage 3): "No messages ever exist solely in the network.
// Consequently, it is possible to stop network operation at any point in
// time without losing or duplicating messages" — the property that lets
// gang-scheduled multiprocessors context-switch without snapshotting
// network state.
//
// This example starts a burst of messages, then brutally preempts the
// entire network mid-flight — every open connection on every router is
// killed, as a gang-scheduler revoking the network would. Because METRO is
// circuit switched, each in-flight message still exists at its source;
// after the preemption the sources simply retry, and application-level
// sequence numbers confirm every message arrives exactly once.
package main

import (
	"fmt"
	"log"

	"metro"
)

func main() {
	spec := metro.Figure1Topology()
	delivered := map[byte]int{} // app-level sequence number -> copies seen
	net, err := metro.BuildNetwork(metro.NetworkParams{
		Spec:        spec,
		Width:       8,
		DataPipe:    1,
		LinkDelay:   1,
		FastReclaim: true,
		Seed:        77,
		RetryLimit:  300,
		OnDeliver: func(dest int, payload []byte, intact bool) {
			if intact && len(payload) > 0 {
				delivered[payload[0]]++
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()

	// A burst of 48 sequenced messages.
	seq := byte(0)
	sent := 0
	for src := 0; src < spec.Endpoints; src++ {
		for d := 1; d <= 3; d++ {
			net.Send(src, (src+d*5)%spec.Endpoints, []byte{seq, byte(src)})
			seq++
			sent++
		}
	}

	// Let the burst get airborne, then preempt: kill every open
	// connection on every router, exactly as stopping the network clock
	// and revoking the fabric would.
	net.Run(15)
	open := 0
	for s := range net.Routers {
		for _, lanes := range net.Routers[s] {
			for _, r := range lanes {
				open += r.ConnectionCount()
				for fp := 0; fp < r.Config().Inputs; fp++ {
					r.KillConnection(net.Engine.Cycle(), fp)
				}
			}
		}
	}
	fmt.Printf("preempted at cycle %d: %d router connections destroyed\n",
		net.Engine.Cycle(), open)

	// Resume: the sources detect their destroyed connections (BCB or
	// watchdog) and retry. No network state was saved or restored.
	if !net.RunUntilQuiet(1000000) {
		log.Fatal("network did not go quiet")
	}

	results := net.TakeResults()
	ok, retries := 0, 0
	for _, r := range results {
		if r.Delivered {
			ok++
		}
		retries += r.Retries
	}
	dupes, missing := 0, 0
	for s := byte(0); s < seq; s++ {
		switch delivered[s] {
		case 0:
			missing++
		case 1:
		default:
			dupes += delivered[s] - 1
		}
	}
	fmt.Printf("after resume: %d/%d messages acknowledged (%d total retries)\n", ok, sent, retries)
	fmt.Printf("application sequence check: %d missing, %d duplicated\n", missing, dupes)
	if missing == 0 && ok == sent {
		fmt.Println("no message was lost across the preemption: every in-flight")
		fmt.Println("message survived at its source and was retried to completion")
	}
	if dupes > 0 {
		fmt.Printf("(%d deliveries raced the preemption and re-arrived; end-to-end\n", dupes)
		fmt.Println("sequence numbers — the usual source-responsible companion — dedupe them)")
	}
}
