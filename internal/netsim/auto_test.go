package netsim

import (
	"reflect"
	"runtime"
	"testing"

	"metro/internal/topo"
)

// scaleParams is the `metrobench -scale` network at radix 4.
func scaleParams(t *testing.T, endpoints int) Params {
	t.Helper()
	spec, err := topo.Scale(endpoints, 4)
	if err != nil {
		t.Fatal(err)
	}
	return Params{Spec: spec, Width: 8, DataPipe: 2, LinkDelay: 1, Seed: 71, RetryLimit: 600, ListenTimeout: 200}
}

// smallestAutoPartitioned returns the smallest radix-4 topo.Scale network,
// up to 4Ki endpoints, that the engine partitions at Workers = 0 on this
// processor count, with its partition count. When none does, it returns
// the 4Ki network and 1.
func smallestAutoPartitioned(t *testing.T) (Params, int) {
	t.Helper()
	for endpoints := 64; ; endpoints *= 4 {
		p := scaleParams(t, endpoints)
		n, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		parts := n.Engine.Partitions()
		n.Close()
		if parts > 1 || endpoints == 4096 {
			return p, parts
		}
	}
}

// TestParallelDifferentialAutoAboveFloor: the smallest network the
// engine partitions by default steps bit for bit as the explicit inline
// run does. On one processor the default must stay inline even at 4Ki
// endpoints, and there is nothing to compare.
func TestParallelDifferentialAutoAboveFloor(t *testing.T) {
	p, parts := smallestAutoPartitioned(t)
	if runtime.GOMAXPROCS(0) == 1 {
		if parts != 1 {
			t.Fatalf("GOMAXPROCS=1: Workers = 0 resolved to %d partitions, want inline", parts)
		}
		return
	}
	if parts == 1 {
		t.Fatalf("GOMAXPROCS=%d: no radix-4 network up to 4Ki endpoints partitions at Workers = 0", runtime.GOMAXPROCS(0))
	}
	t.Logf("%d endpoints: %d partitions at GOMAXPROCS=%d", p.Spec.Endpoints, parts, runtime.GOMAXPROCS(0))
	c := congested{p: p, injectSeed: 17, perCycle: 16, cycles: 64, short: 64}
	want := c.run(t, false, 1, nil)
	if len(want) == 0 {
		t.Fatal("inline run completed no messages; the differential compares nothing")
	}
	got := c.run(t, false, 0, nil)
	t.Logf("%d messages completed in %d cycles", len(want), c.cycles)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%d endpoints, %d partitions: %d results diverge from the inline run's %d (first divergence: %s)",
			p.Spec.Endpoints, parts, len(got), len(want), firstDivergence(got, want))
	}
}

// TestCloseReleasesAutoWorkers: a network the engine partitions by default
// starts worker goroutines on its first Step, and Close releases them, so
// building, stepping and closing such networks over and over leaves the
// goroutine count where it started.
func TestCloseReleasesAutoWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p, parts := smallestAutoPartitioned(t)
	if parts <= 1 {
		t.Fatalf("GOMAXPROCS=2: no radix-4 network up to 4Ki endpoints partitions at Workers = 0")
	}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		n, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		n.Send(0, 1, []byte{byte(i)})
		n.Run(4)
		if got := runtime.NumGoroutine(); got != baseline+1 {
			t.Errorf("build %d: %d goroutines while stepping, want the baseline %d plus one worker lane", i, got, baseline)
		}
		n.Close()
	}
	// Close waits for each worker's deferred Done, which runs a few
	// instructions before the goroutine leaves the count.
	for yields := 0; runtime.NumGoroutine() > baseline; yields++ {
		if yields == 1_000_000 {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}
