package metrofuzz

import (
	"reflect"
	"strings"
	"testing"

	"metro/internal/fault"
	"metro/internal/topo"
)

// TestGeneratorValidAndDeterministic: every generated scenario must
// validate (the ensemble never wastes a seed on a spec error), and the
// seed->scenario mapping must be a pure function — the whole repro
// story hangs on that.
func TestGeneratorValidAndDeterministic(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 100
	}
	for seed := int64(0); seed < int64(n); seed++ {
		s := Generate(seed)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid scenario: %v", seed, err)
		}
		again := Generate(seed)
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("seed %d: generator is not deterministic:\n%+v\n%+v", seed, s, again)
		}
	}
}

// TestSpecRoundTrip: the one-line spec is the replay currency; encoding
// then decoding any generated scenario must reproduce it exactly —
// presets, custom topologies, random wiring seeds, fault plans and all.
func TestSpecRoundTrip(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	for seed := int64(0); seed < int64(n); seed++ {
		s := Generate(seed)
		line := EncodeSpec(s)
		if strings.ContainsAny(line, " \n\t") {
			t.Fatalf("seed %d: spec contains whitespace: %q", seed, line)
		}
		got, err := DecodeSpec(line)
		if err != nil {
			t.Fatalf("seed %d: decode %q: %v", seed, line, err)
		}
		if !reflect.DeepEqual(s, got) {
			t.Fatalf("seed %d: round trip drifted:\n  in:  %+v\n  out: %+v\n  via %q", seed, s, got, line)
		}
	}
}

// TestSpecRoundTripAllFaultKinds covers the fault codec arms the
// generator never emits (stuck bits are replay-only).
func TestSpecRoundTripAllFaultKinds(t *testing.T) {
	s := Generate(0)
	s.Preset = "fig1"
	s.Custom = topo.Spec{}
	s.Faults = fault.Plan{
		{At: 0, Kind: fault.LinkKill, Stage: -1, Index: 3, Port: 1},
		{At: 10, Kind: fault.RouterKill, Stage: 0, Index: 2},
		{At: 20, Kind: fault.LinkKill, Stage: 1, Index: 1, Port: 3},
		{At: 30, Kind: fault.PortDisable, Stage: 1, Index: 0, Port: 2},
		{At: 40, Kind: fault.LinkStuckBit, Stage: 0, Index: 1, Port: 0, Bit: 5},
	}
	line := EncodeSpec(s)
	got, err := DecodeSpec(line)
	if err != nil {
		t.Fatalf("decode %q: %v", line, err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("fault plan drifted through %q:\n  in:  %+v\n  out: %+v", line, s.Faults, got.Faults)
	}
}

// TestSpecRoundTripCustomTopology pins the custom-topology encoding,
// including the random-wiring seed suffix.
func TestSpecRoundTripCustomTopology(t *testing.T) {
	s := Generate(0)
	s.Preset = ""
	s.Custom = topo.Spec{
		Endpoints:     16,
		EndpointLinks: 2,
		Stages: []topo.StageSpec{
			{Inputs: 4, Radix: 2, Dilation: 2},
			{Inputs: 4, Radix: 2, Dilation: 2},
			{Inputs: 4, Radix: 4, Dilation: 1},
		},
		Wiring: topo.WiringRandom,
		Seed:   12345,
	}
	s.Faults = nil
	line := EncodeSpec(s)
	if !strings.Contains(line, "topo=16x2:2.2.4,2.2.4,4.1.4@12345") {
		t.Fatalf("unexpected topology encoding in %q", line)
	}
	got, err := DecodeSpec(line)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("custom topology drifted:\n  in:  %+v\n  out: %+v", s.Custom, got.Custom)
	}
}

// TestDecodeSpecRejects: malformed or out-of-range specs must fail
// loudly, never run.
func TestDecodeSpecRejects(t *testing.T) {
	valid := EncodeSpec(Generate(1))
	cases := []struct{ name, spec string }{
		{"empty", ""},
		{"wrong version", "mf9;topo=fig1"},
		{"unknown field", valid + ";zz=1"},
		{"unknown preset", strings.Replace(valid, "topo=", "topo=nosuch", 1)},
		{"malformed field", valid + ";ic"},
		{"bad width", replaceField(valid, "w", "99")},
		{"zero messages", replaceField(valid, "msgs", "0")},
		{"bad fault code", valid + ";faults=xx@1:0.0"},
		{"fault missing fields", valid + ";faults=rk@1:0"},
		{"fault bad cycle", valid + ";faults=rk@-1:0.0"},
	}
	for _, c := range cases {
		if _, err := DecodeSpec(c.spec); err == nil {
			t.Errorf("%s: DecodeSpec(%q) accepted", c.name, c.spec)
		}
	}
	// A seed that does not parse names its field, as every other field
	// does: metroserve's 400 body relies on the prefix.
	for _, c := range []struct{ field, val string }{{"ns", "x"}, {"ts", "x"}, {"ns", "99999999999999999999"}, {"ts", "1.5"}} {
		_, err := DecodeSpec(replaceField(valid, c.field, c.val))
		if want := "metrofuzz: field " + c.field + ": "; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s=%s: DecodeSpec error %v, want the prefix %q", c.field, c.val, err, want)
		}
	}
}

func replaceField(spec, key, val string) string {
	parts := strings.Split(spec, ";")
	for i, p := range parts {
		if strings.HasPrefix(p, key+"=") {
			parts[i] = key + "=" + val
		}
	}
	return strings.Join(parts, ";")
}

// TestValidateFaultTargets: fault events must land on elements the
// topology actually has.
func TestValidateFaultTargets(t *testing.T) {
	base := Generate(1)
	base.Preset = "fig1" // 16 endpoints, 2 links, 2 stages
	base.Custom = topo.Spec{}
	ok := base
	ok.Faults = fault.Plan{{At: 5, Kind: fault.RouterKill, Stage: 0, Index: 0}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid fault rejected: %v", err)
	}
	cases := []fault.Event{
		{Kind: fault.RouterKill, Stage: 9, Index: 0},            // no such stage
		{Kind: fault.RouterKill, Stage: 0, Index: 999},          // no such router
		{Kind: fault.LinkKill, Stage: 0, Index: 0, Port: 99},    // no such port
		{Kind: fault.LinkKill, Stage: -1, Index: 999, Port: 0},  // no such endpoint
		{Kind: fault.LinkKill, Stage: -1, Index: 0, Port: 9},    // no such link
		{Kind: fault.RouterKill, Stage: -1, Index: 0},           // kills need routers
		{Kind: fault.PortDisable, Stage: -1, Index: 0, Port: 0}, // disables too
	}
	for i, e := range cases {
		s := base
		s.Faults = fault.Plan{e}
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid fault %+v accepted", i, e)
		}
	}
}

// TestPayloadRoundTrip: the tag must survive encoding, tolerate the
// trailing zero padding wide channels introduce, and reject every
// corruption a delivery bug could produce.
func TestPayloadRoundTrip(t *testing.T) {
	for _, n := range []int{8, 12, 20, 40, 64} {
		buf := AppendPayload([]byte{0xee}, 7001, 3, 12, n)
		p := buf[1:]
		if buf[0] != 0xee || len(p) != n {
			t.Fatalf("AppendPayload wrote %d bytes after a prefix now %#x, want %d after 0xee", len(p), buf[0], n)
		}
		id, src, dest, ok := DecodePayload(p)
		if !ok || id != 7001 || src != 3 || dest != 12 {
			t.Fatalf("decode(%d bytes) = %d,%d,%d,%v", n, id, src, dest, ok)
		}
		// Channel padding: wide logical words round payloads up with
		// trailing zeros.
		padded := append(append([]byte(nil), p...), 0, 0, 0)
		if id, src, dest, ok = DecodePayload(padded); !ok || id != 7001 || src != 3 || dest != 12 {
			t.Fatalf("padded decode failed: %d,%d,%d,%v", id, src, dest, ok)
		}
		// Nonzero padding is corruption, not padding.
		bad := append(append([]byte(nil), p...), 1)
		if _, _, _, ok = DecodePayload(bad); ok {
			t.Fatal("nonzero trailing byte accepted")
		}
		// Any single-byte flip must be caught.
		for i := 0; i < n; i++ {
			flip := append([]byte(nil), p...)
			flip[i] ^= 0x40
			if _, _, _, ok := DecodePayload(flip); ok {
				t.Fatalf("flip at byte %d of %d went undetected", i, n)
			}
		}
	}
	if _, _, _, ok := DecodePayload([]byte{1, 2, 3}); ok {
		t.Fatal("short buffer accepted")
	}
	if _, _, _, ok := DecodePayload(nil); ok {
		t.Fatal("nil buffer accepted")
	}
}
