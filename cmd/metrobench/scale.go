package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"metro/internal/netsim"
	"metro/internal/nic"
	"metro/internal/topo"
)

// ScalePoint is one measured point of the kernel scaling curve: a
// Figure 3-family network (topo.Scale) at a given endpoint count,
// stepped under closed-loop load with a given worker count. The curve
// answers the METRO scaling question directly: how much wall clock does
// one network cycle cost as the machine grows, and how much of it the
// engine's worker pool claws back per worker. Partitions is the count the
// engine stepped in: the worker count, or for workers 0 the count the
// engine chose on this machine.
type ScalePoint struct {
	Endpoints          int     `json:"endpoints"`
	Radix              int     `json:"radix"`
	Stages             int     `json:"stages"`
	Routers            int     `json:"routers"`
	Links              int     `json:"links"`
	Workers            int     `json:"workers"`
	Partitions         int     `json:"partitions"`
	Cycles             int     `json:"cycles"`
	Delivered          int     `json:"delivered"`
	BuildMs            float64 `json:"build_ms"`
	BytesPerEndpoint   int64   `json:"bytes_per_endpoint"`
	NsPerCycle         float64 `json:"ns_per_cycle"`
	CyclesPerSec       float64 `json:"cycles_per_sec"`
	NsPerEndpointCycle float64 `json:"ns_per_endpoint_cycle"`
}

var scalePayload = [4]byte{0xa5, 0x3c, 0x96, 0x0f}

// runScale measures the kernel scaling curve: for each endpoint count and
// each worker count it builds a fresh network, charges the build's heap
// growth to the size (bytes/endpoint), warms it up and times one window of
// cycles. Load is closed-loop — endpoints/8 messages stay in flight, every
// completion immediately replaced — so each measured cycle sees the same
// steady congestion regardless of size. Every worker count runs the same
// seeds from the same fresh state, and the schedule is bit-identical at
// every worker count, so each times the same cycle window: the counts must
// deliver the same number of messages, and runScale fails if they do not.
func runScale(sizes []int, radix, cycles int, workers []int) ([]ScalePoint, error) {
	points := make([]ScalePoint, 0, len(sizes)*len(workers))
	for _, endpoints := range sizes {
		spec, err := topo.Scale(endpoints, radix)
		if err != nil {
			return nil, err
		}
		for i, w := range workers {
			p, err := scalePoint(spec, radix, cycles, w)
			if err != nil {
				return nil, fmt.Errorf("scale %d: %v", endpoints, err)
			}
			// points[len(points)-i] is this size's first worker count.
			if ref := points[len(points)-i:]; i > 0 && ref[0].Delivered != p.Delivered {
				return nil, fmt.Errorf("scale %d: %d workers delivered %d messages, %d workers %d; every worker count must time the same cycle window",
					endpoints, w, p.Delivered, ref[0].Workers, ref[0].Delivered)
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// scalePoint builds spec's network afresh at the given worker count, warms
// it up and times cycles steps of it. The traffic stream is seeded afresh
// too, so every call with the same spec and cycles runs the same cycles.
func scalePoint(spec topo.Spec, radix, cycles, workers int) (ScalePoint, error) {
	endpoints := spec.Endpoints
	completed := 0
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	buildStart := time.Now()
	n, err := netsim.Build(netsim.Params{
		Spec: spec, Width: 8, DataPipe: 2, LinkDelay: 1,
		Seed: 71, RetryLimit: 600, ListenTimeout: 200, Workers: workers,
		OnResult: func(nic.Result) { completed++ },
	})
	if err != nil {
		return ScalePoint{}, err
	}
	defer n.Close()
	buildMs := float64(time.Since(buildStart).Nanoseconds()) / 1e6
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytesPerEndpoint := int64(after.HeapAlloc-before.HeapAlloc) / int64(endpoints)

	rng := rand.New(rand.NewSource(17))
	send := func() {
		src, dest := rng.Intn(endpoints), rng.Intn(endpoints)
		if dest == src {
			dest = (dest + 1) % endpoints
		}
		n.Send(src, dest, scalePayload[:])
	}
	inflight := endpoints / 8
	if inflight < 64 {
		inflight = 64
	}
	for i := 0; i < inflight; i++ {
		send()
	}
	warmup := cycles / 4
	if warmup < 64 {
		warmup = 64
	}
	step := func(count int) (delivered int) {
		for i := 0; i < count; i++ {
			n.Engine.Step()
			for ; completed > 0; completed-- {
				delivered++
				send()
			}
		}
		return delivered
	}
	step(warmup)
	start := time.Now()
	delivered := step(cycles)
	elapsed := time.Since(start)
	nsPerCycle := float64(elapsed.Nanoseconds()) / float64(cycles)
	return ScalePoint{
		Endpoints:          endpoints,
		Radix:              radix,
		Stages:             len(spec.Stages),
		Routers:            n.Topo.RouterCount(),
		Links:              n.Topo.LinkCount(),
		Workers:            workers,
		Partitions:         n.Engine.Partitions(),
		Cycles:             cycles,
		Delivered:          delivered,
		BuildMs:            buildMs,
		BytesPerEndpoint:   bytesPerEndpoint,
		NsPerCycle:         nsPerCycle,
		CyclesPerSec:       1e9 / nsPerCycle,
		NsPerEndpointCycle: nsPerCycle / float64(endpoints),
	}, nil
}

// parseIntList parses a comma-separated list of non-negative integers. An
// empty entry, as in "16,,16" or "1,", is a bad value, not skipped.
func parseIntList(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("-%s: bad value %q", flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}
