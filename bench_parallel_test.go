// Benchmark for the partitioned parallel two-phase engine: steady-state
// cycle throughput of the congested Figure 3 workload across worker
// counts, with workers=1 as the inline reference (workers=0, the engine's
// own choice, is inline too on this 64-endpoint network). Every configuration
// computes bit-for-bit identical results (see the differential tests in
// internal/netsim and internal/traffic); this benchmark measures only
// how fast the cycles go by.
//
//	go test -bench EngineWorkers -benchtime 2s .
//
// ns/op is the cost of one full simulation cycle (partitioned unit eval
// and its barrier, then the serialized epilogue and commit) for the whole
// 64-endpoint network.
package metro_test

import (
	"fmt"
	"runtime"
	"testing"

	"metro"
	"metro/internal/traffic"
)

func BenchmarkEngineWorkers(b *testing.B) {
	once("engineworkers", func() {
		fmt.Printf("\n=== Parallel engine cycle throughput (GOMAXPROCS=%d) ===\n",
			runtime.GOMAXPROCS(0))
	})
	for _, workers := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			driver := &traffic.ClosedLoop{
				Load:        0.75,
				MsgBytes:    20,
				Pattern:     traffic.Uniform{},
				Outstanding: 2,
				Seed:        11,
			}
			n, err := metro.BuildNetwork(metro.NetworkParams{
				Spec:        metro.Figure3Topology(),
				Width:       8,
				DataPipe:    1,
				LinkDelay:   1,
				FastReclaim: true,
				Seed:        3,
				RetryLimit:  1000,
				Workers:     workers,
				OnResult:    driver.OnResult,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()
			driver.Bind(n)
			n.Run(500) // reach steady congestion before timing
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Engine.Step()
			}
		})
	}
}
