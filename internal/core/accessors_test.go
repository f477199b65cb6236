package core_test

import (
	"testing"

	"metro/internal/core"
	"metro/internal/link"
	"metro/internal/telemetry"
	"metro/internal/word"
)

func TestRouterAccessors(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 1)
	r := h.r
	if r.Name() != "r0" {
		t.Errorf("Name = %q", r.Name())
	}
	if r.Config().Inputs != 4 {
		t.Errorf("Config.Inputs = %d", r.Config().Inputs)
	}
	if got := r.Settings(); got.Dilation != 1 {
		t.Errorf("Settings.Dilation = %d", got.Dilation)
	}
	if r.Dilation() != 1 {
		t.Errorf("Dilation = %d", r.Dilation())
	}
	if r.ForwardLink(0) == (link.End{}) || r.BackwardLink(0) == (link.End{}) {
		t.Error("attached links not retrievable")
	}
	if r.ClosingCount() != 0 {
		t.Errorf("fresh router ClosingCount = %d", r.ClosingCount())
	}
}

func TestApplySettingsLive(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 2)
	set := h.r.Settings()
	set.Dilation = 2
	set.FastReclaim &^= 1 << 0
	if err := h.r.ApplySettings(set); err != nil {
		t.Fatal(err)
	}
	if h.r.Dilation() != 2 || h.r.Radix() != 2 {
		t.Fatalf("dilation not applied: d=%d r=%d", h.r.Dilation(), h.r.Radix())
	}
	bad := h.r.Settings()
	bad.Dilation = 8
	if err := h.r.ApplySettings(bad); err == nil {
		t.Fatal("invalid settings accepted")
	}
	// Per-port setters.
	h.r.SetForwardEnabled(1, false)
	h.r.SetBackwardEnabled(2, false)
	h.r.SetFastReclaim(3, true)
	got := h.r.Settings()
	if got.ForwardEnabled != 0b1101 || got.BackwardEnabled != 0b1011 || got.FastReclaim != 0b1110 {
		t.Fatalf("port setters not applied: %+v", got)
	}
}

func TestClosingCountDuringFlush(t *testing.T) {
	cfg := cfg4x4()
	cfg.DataPipe = 3 // slow flush so the closer is observable
	h := newHarness(cfg, dil1Settings(cfg), 3)
	seq := []word.Word{
		word.MakeRoute(0, 2),
		word.MakeData(1, mustWidth(4)),
		word.MakeData(2, mustWidth(4)),
		{Kind: word.Drop},
	}
	sawClosing := false
	for i := 0; i < 14; i++ {
		if i < len(seq) {
			h.src[0].Send(seq[i])
		}
		if h.r.ClosingCount() > 0 {
			sawClosing = true
			if h.r.OwnerOf(0) != -2 {
				t.Fatalf("flushing port owner marker = %d, want -2", h.r.OwnerOf(0))
			}
			if err := h.r.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		h.run()
	}
	if !sawClosing {
		t.Fatal("detached closer never observed")
	}
	if h.r.ClosingCount() != 0 || h.r.OwnerOf(0) != -1 {
		t.Fatal("closer did not complete")
	}
}

// TestRouterIDRoundTrip: a router no network has placed emits its events
// as stage -1, index -1, lane 0, and after SetID as the identity SetID
// was given, lane included.
func TestRouterIDRoundTrip(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 9)
	expect := func(want telemetry.Source) {
		t.Helper()
		rec := telemetry.New(telemetry.Options{Capacity: 64})
		h.r.SetTelemetry(rec.NewBuf())
		h.connCycle()
		rec.Flush()
		events := rec.Snapshot().Events
		if len(events) == 0 {
			t.Fatal("no events recorded")
		}
		for _, e := range events {
			if e.Src != want {
				t.Fatalf("%v: source %v, want %v", e, e.Src, want)
			}
		}
	}
	expect(telemetry.RouterSource(-1, -1, 0))
	h.r.SetID(2, 5, 1)
	expect(telemetry.RouterSource(2, 5, 1))
}

func TestInvariantsOnFreshAndActiveRouter(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 5)
	if err := h.r.CheckInvariants(); err != nil {
		t.Fatalf("fresh router: %v", err)
	}
	h.src[0].Send(word.MakeRoute(1, 2))
	h.run()
	h.src[0].Send(word.Word{Kind: word.DataIdle})
	h.run()
	if err := h.r.CheckInvariants(); err != nil {
		t.Fatalf("connected router: %v", err)
	}
}

func TestSelectionPolicySetter(t *testing.T) {
	cfg := cfg4x4()
	set := core.DefaultSettings(cfg) // dilation 2
	for trial := 0; trial < 10; trial++ {
		h := newHarness(cfg, set, uint32(trial+1))
		h.r.SetSelectionPolicy(core.SelectFirstFree)
		h.src[0].Send(word.MakeRoute(1, 1)) // direction 1: ports 2,3
		h.run()
		h.run()
		if h.r.OwnerOf(2) != 0 {
			t.Fatalf("first-free should always pick port 2, trial %d picked differently", trial)
		}
	}
}

// TestConfigValidatePortBound: the port masks and the cascade IN-USE signal
// hold one bit per port in a uint64, so 64 ports is the most a router may
// have, on either side. 128 used to be accepted and then compared half its
// ports in BackwardInUse.
func TestConfigValidatePortBound(t *testing.T) {
	cases := []struct {
		inputs, outputs int
		ok              bool
	}{
		{64, 4, true},
		{4, 64, true},
		{64, 64, true},
		{128, 4, false},
		{4, 128, false},
		{128, 128, false},
	}
	for _, tc := range cases {
		cfg := core.Config{
			Inputs: tc.inputs, Outputs: tc.outputs, Width: 8, MaxDilation: 2,
			DataPipe: 1, RandomInputs: 1, ScanPaths: 1,
		}
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%dx%d: Validate() = %v, want accepted = %v", tc.inputs, tc.outputs, err, tc.ok)
		}
	}
	// At the bound every port has its own IN-USE bit: a connection on
	// backward port 63 shows in the mask.
	cfg := core.Config{
		Inputs: 64, Outputs: 64, Width: 8, MaxDilation: 1,
		DataPipe: 1, RandomInputs: 1, ScanPaths: 1,
	}
	h := newHarness(cfg, core.DefaultSettings(cfg), 3)
	h.src[63].Send(word.MakeRoute(63, 6))
	h.run()
	h.run()
	if got := h.r.BackwardInUse(); got != 1<<63 {
		t.Fatalf("BackwardInUse() = %#x with backward port 63 allocated, want bit 63 alone", got)
	}
	if h.r.OwnerOf(63) != 63 {
		t.Fatalf("backward port 63 owner = %d, want forward port 63", h.r.OwnerOf(63))
	}
}

func TestConfigValidateRemainingBranches(t *testing.T) {
	bad := []core.Config{
		{Inputs: 4, Outputs: 4, Width: 40, MaxDilation: 2, DataPipe: 1, RandomInputs: 1, ScanPaths: 1},
		{Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 2, HeaderWords: -1, DataPipe: 1, RandomInputs: 1, ScanPaths: 1},
		{Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 2, DataPipe: 1, MaxVTD: -1, RandomInputs: 1, ScanPaths: 1},
		{Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 2, DataPipe: 1, RandomInputs: 1, ScanPaths: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	set := core.DefaultSettings(cfg4x4())
	mutations := []func(*core.Settings){
		func(s *core.Settings) { s.Dilation = 3 },
		func(s *core.Settings) { s.BackwardEnabled |= 1 << 4 },
		func(s *core.Settings) { s.FastReclaim |= 1 << 4 },
		func(s *core.Settings) { s.Swallow |= 1 << 63 },
		func(s *core.Settings) { s.OffPortDrive[0] |= 1 << 4 },
		func(s *core.Settings) { s.OffPortDrive[1] |= 1 << 4 },
		func(s *core.Settings) { s.TurnDelay = s.TurnDelay[:1] },
	}
	for i, mutate := range mutations {
		bad := set.Clone()
		mutate(&bad)
		if err := bad.Validate(cfg4x4()); err == nil {
			t.Errorf("bad settings %d accepted", i)
		}
	}
}

// TestPortSettersPanicOutOfRange: a per-port setter given a port its bank
// does not have panics, as an index past a per-port slice would, rather
// than set a bit Validate would reject.
func TestPortSettersPanicOutOfRange(t *testing.T) {
	cfg := core.Config{Inputs: 4, Outputs: 8, Width: 4, MaxDilation: 2,
		DataPipe: 1, RandomInputs: 1, ScanPaths: 1}
	setters := []struct {
		name  string
		ports int
		set   func(r *core.Router, p int)
	}{
		{"SetForwardEnabled", cfg.Inputs, func(r *core.Router, p int) { r.SetForwardEnabled(p, true) }},
		{"SetBackwardEnabled", cfg.Outputs, func(r *core.Router, p int) { r.SetBackwardEnabled(p, true) }},
		{"SetFastReclaim", cfg.Inputs, func(r *core.Router, p int) { r.SetFastReclaim(p, true) }},
	}
	for _, s := range setters {
		for _, p := range []int{-1, s.ports, core.MaxPorts} {
			r := core.NewRouter("r", cfg, core.DefaultSettings(cfg), 1)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) on %d ports did not panic", s.name, p, s.ports)
					}
				}()
				s.set(r, p)
			}()
		}
	}
}
