package traffic

import (
	"math/rand"
	"testing"

	"metro/internal/netsim"
	"metro/internal/topo"
)

func TestPatternsNeverSelfSend(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	patterns := []Pattern{Uniform{}, Hotspot{Target: 3, Fraction: 0.5}, BitReverse{}, Transpose{}}
	for _, p := range patterns {
		for src := 0; src < 16; src++ {
			for trial := 0; trial < 50; trial++ {
				d := p.Dest(src, 16, rng)
				if d == src {
					t.Fatalf("%s: self-send from %d", p.Name(), src)
				}
				if d < 0 || d >= 16 {
					t.Fatalf("%s: dest %d out of range", p.Name(), d)
				}
			}
		}
	}
}

// TestPatternByName: each command-line name stands for its pattern, and
// any other name is refused.
func TestPatternByName(t *testing.T) {
	for name, want := range map[string]Pattern{
		"uniform":   Uniform{},
		"hotspot":   Hotspot{Target: 0, Fraction: 0.3},
		"bitrev":    BitReverse{},
		"transpose": Transpose{},
	} {
		if got, ok := PatternByName(name); !ok || got != want {
			t.Errorf("PatternByName(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
	for _, name := range []string{"", "bit-reverse", "Uniform"} {
		if got, ok := PatternByName(name); ok {
			t.Errorf("PatternByName(%q) = %v, want no pattern", name, got)
		}
	}
}

func TestUniformCoversDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		seen[Uniform{}.Dest(0, 8, rng)] = true
	}
	if len(seen) != 7 {
		t.Fatalf("uniform covered %d destinations, want 7", len(seen))
	}
}

func TestHotspotBias(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := Hotspot{Target: 5, Fraction: 0.8}
	hits := 0
	for i := 0; i < 1000; i++ {
		if h.Dest(0, 16, rng) == 5 {
			hits++
		}
	}
	if hits < 700 {
		t.Fatalf("hotspot hit rate %d/1000, want >= 700", hits)
	}
}

func TestBitReverseIsPermutationLike(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	counts := map[int]int{}
	for src := 0; src < 16; src++ {
		counts[BitReverse{}.Dest(src, 16, rng)]++
	}
	for d, c := range counts {
		if c > 2 {
			t.Fatalf("bit-reverse maps %d sources to %d", c, d)
		}
	}
}

func fig1Run(load float64, cycles uint64) (RunSpec, error) {
	spec := RunSpec{
		Net: netsim.Params{
			Spec:        topo.Figure1(),
			Width:       8,
			DataPipe:    1,
			LinkDelay:   1,
			FastReclaim: true,
			Seed:        1,
			RetryLimit:  200,
		},
		Load:          load,
		MsgBytes:      8,
		Outstanding:   1,
		WarmupCycles:  500,
		MeasureCycles: cycles,
		Seed:          11,
	}
	return spec, nil
}

func TestClosedLoopLightLoad(t *testing.T) {
	spec, _ := fig1Run(0.1, 4000)
	p, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Messages < 20 {
		t.Fatalf("too few messages measured: %d", p.Messages)
	}
	if p.Delivered != p.Messages {
		t.Fatalf("light load dropped messages: %d/%d", p.Delivered, p.Messages)
	}
	if p.Latency.Mean <= 0 {
		t.Fatal("latency not measured")
	}
}

func TestLoadLatencyMonotone(t *testing.T) {
	spec, _ := fig1Run(0, 6000)
	points, err := Sweep(spec, []float64{0.05, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	low, high := points[0], points[1]
	if high.Latency.Mean <= low.Latency.Mean {
		t.Fatalf("latency did not grow with load: %.1f (5%%) vs %.1f (80%%)",
			low.Latency.Mean, high.Latency.Mean)
	}
	if high.RetriesPerMessage <= low.RetriesPerMessage {
		t.Fatalf("retries did not grow with load: %.2f vs %.2f",
			low.RetriesPerMessage, high.RetriesPerMessage)
	}
}

func TestThinkTimeCalibration(t *testing.T) {
	// Mean of the sampled geometric think time should approximate the
	// calibrated mean.
	c := &ClosedLoop{Load: 0.5, MsgBytes: 8, Seed: 9}
	n, err := netsim.Build(netsim.Params{Spec: topo.Figure1(), Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	c.Bind(n)
	want := c.thinkMean
	sum := 0.0
	const trials = 20000
	for i := 0; i < trials; i++ {
		sum += float64(c.sampleThink())
	}
	got := sum / trials
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("think mean %f, want ~%f", got, want)
	}
}
