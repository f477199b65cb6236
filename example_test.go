package metro_test

import (
	"fmt"

	"metro"
)

// Build the paper's Figure 1 network and deliver one reliable message.
func ExampleBuildNetwork() {
	net, err := metro.BuildNetwork(metro.NetworkParams{
		Spec:        metro.Figure1Topology(),
		Width:       8,
		FastReclaim: true,
		Seed:        42,
	})
	if err != nil {
		panic(err)
	}
	defer net.Close()
	res, _ := metro.SendOne(net, 6, 15, []byte("hello"), 5000)
	fmt.Println("delivered:", res.Delivered, "retries:", res.Retries)
	// Output: delivered: true retries: 0
}

// Inspect a topology's multipath structure.
func ExampleBuildTopology() {
	top, err := metro.BuildTopology(metro.Figure1Topology())
	if err != nil {
		panic(err)
	}
	fmt.Println("routers:", top.RouterCount())
	fmt.Println("paths 6->15:", top.PathCount(6, 15))
	// Output:
	// routers: 24
	// paths 6->15: 8
}

// Evaluate the paper's Table 4 latency model for an implementation point.
func ExampleImplementation() {
	orbit := metro.Table3()[0] // METROJR-ORBIT, 1.2u gate array
	fmt.Printf("t_stg = %g ns\n", orbit.TStg())
	fmt.Printf("t20,32 = %g ns\n", orbit.T2032())
	fmt.Printf("t20,1024 = %g ns\n", orbit.Scaled(1024).T2032())
	// Output:
	// t_stg = 50 ns
	// t20,32 = 1250 ns
	// t20,1024 = 1525 ns
}

// Run a closed-loop load point on the Figure 3 network.
func ExampleRunClosedLoop() {
	point, err := metro.RunClosedLoop(metro.RunSpec{
		Net: metro.NetworkParams{
			Spec:        metro.Figure3Topology(),
			Width:       8,
			FastReclaim: true,
			Seed:        17,
		},
		Load:          0.05,
		MsgBytes:      20,
		Pattern:       metro.UniformTraffic{},
		Outstanding:   1,
		WarmupCycles:  1000,
		MeasureCycles: 3000,
		Seed:          3,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("all delivered:", point.Delivered == point.Messages)
	fmt.Println("latency within expectation:", point.Latency.Mean > 30 && point.Latency.Mean < 50)
	// Output:
	// all delivered: true
	// latency within expectation: true
}

// Tear a network apart mid-run and watch source-responsible retry recover.
func ExampleInjectFaults() {
	net, err := metro.BuildNetwork(metro.NetworkParams{
		Spec:        metro.Figure1Topology(),
		Width:       8,
		FastReclaim: true,
		Seed:        7,
		RetryLimit:  300,
	})
	if err != nil {
		panic(err)
	}
	defer net.Close()
	metro.InjectFaults(net, metro.FaultPlan{
		{At: 0, Kind: metro.FaultRouterKill, Stage: 0, Index: 1},
		{At: 0, Kind: metro.FaultRouterKill, Stage: 1, Index: 2},
	})
	res, _ := metro.SendOne(net, 0, 9, []byte("x"), 50000)
	fmt.Println("delivered despite two dead routers:", res.Delivered)
	// Output: delivered despite two dead routers: true
}
