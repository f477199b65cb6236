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

// autoNetworks returns the radix-4 topo.Scale networks the default
// engine is pinned on, with the partition count each resolves to at
// Workers = 0 on this processor count: the smallest, up to 4Ki endpoints,
// that the engine partitions (on two or more processors Figure 3's size,
// 128 units), and the 4Ki network, whose 11,264 units are above
// 2*minLaneUnits, so it may get more than two lanes. When none up to 4Ki
// partitions, it returns the 4Ki network alone.
func autoNetworks(t *testing.T) (ps []Params, parts []int) {
	t.Helper()
	for endpoints := 64; endpoints <= 4096; endpoints *= 4 {
		p := scaleParams(t, endpoints)
		n, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		np := n.Engine.Partitions()
		n.Close()
		if (np > 1 && len(ps) == 0) || endpoints == 4096 {
			ps, parts = append(ps, p), append(parts, np)
		}
	}
	return ps, parts
}

// TestParallelDifferentialAutoAboveFloor: the smallest network the engine
// partitions by default, and the 4Ki network, step bit for bit as the
// explicit inline run does. On one processor the default must stay inline
// even at 4Ki endpoints, and there is nothing to compare.
func TestParallelDifferentialAutoAboveFloor(t *testing.T) {
	ps, parts := autoNetworks(t)
	for i, p := range ps {
		if runtime.GOMAXPROCS(0) == 1 {
			if parts[i] != 1 {
				t.Fatalf("GOMAXPROCS=1: %d endpoints resolved to %d partitions at Workers = 0, want inline", p.Spec.Endpoints, parts[i])
			}
			continue
		}
		if parts[i] == 1 {
			t.Fatalf("GOMAXPROCS=%d: %d endpoints run inline at Workers = 0", runtime.GOMAXPROCS(0), p.Spec.Endpoints)
		}
		t.Logf("%d endpoints: %d partitions at GOMAXPROCS=%d", p.Spec.Endpoints, parts[i], runtime.GOMAXPROCS(0))
		c := congested{p: p, injectSeed: 17, perCycle: 16, cycles: 64, short: 64}
		want := c.run(t, false, 1, nil)
		if len(want) == 0 {
			t.Fatal("inline run completed no messages; the differential compares nothing")
		}
		got := c.run(t, false, 0, nil)
		t.Logf("%d messages completed in %d cycles", len(want), c.cycles)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d endpoints, %d partitions: %d results diverge from the inline run's %d (first divergence: %s)",
				p.Spec.Endpoints, parts[i], len(got), len(want), firstDivergence(got, want))
		}
	}
}

// TestCloseReleasesAutoWorkers: a network the engine partitions by default
// starts worker goroutines on its first Step, and Close releases them, so
// building, stepping and closing such networks over and over leaves the
// goroutine count where it started.
func TestCloseReleasesAutoWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ps, parts := autoNetworks(t)
	if len(ps) != 2 {
		t.Fatalf("GOMAXPROCS=2: %d of the radix-4 networks up to 4Ki endpoints partition at Workers = 0, want 2", len(ps))
	}
	for j, p := range ps {
		if parts[j] <= 1 {
			t.Fatalf("GOMAXPROCS=2: %d endpoints run inline at Workers = 0", p.Spec.Endpoints)
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
				t.Errorf("%d endpoints, build %d: %d goroutines while stepping, want the baseline %d plus one worker lane",
					p.Spec.Endpoints, i, got, baseline)
			}
			n.Close()
		}
		// Close waits for each worker's deferred Done, which runs a few
		// instructions before the goroutine leaves the count.
		for yields := 0; runtime.NumGoroutine() > baseline; yields++ {
			if yields == 1_000_000 {
				t.Fatalf("%d endpoints: %d goroutines after Close, baseline %d", p.Spec.Endpoints, runtime.NumGoroutine(), baseline)
			}
			runtime.Gosched()
		}
	}
}
