package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func sampleTrace() Trace {
	return Trace{
		Total: 12, // 4 of the 16 recorded events were overwritten
		Events: []Event{
			ev(5, EvMsgQueued, EndpointSource(3), 1, 9, 0),
			ev(6, EvMsgAttempt, EndpointSource(3), 1, 1, 0),
			ev(6, EvConnSetup, RouterSource(0, 2, 0), 0, 1, 5),
			ev(7, EvConnBlockedFast, RouterSource(1, 7, 1), 0, 3, 1),
			ev(8, EvFault, RouterSource(2, 0, 0), 0, 2, -1),
			ev(9, EvGaugeConns, NetworkSource(1), 0, 4, 0),
			ev(9, EvGaugeQueueDepth, NetworkSource(-1), 0, 11, 3),
			ev(40, EvMsgDelivered, EndpointSource(3), 1, 0, 9),
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	in := sampleTrace()
	var buf bytes.Buffer
	if err := Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Total != in.Total {
		t.Errorf("Total = %d, want %d", out.Total, in.Total)
	}
	if len(out.Events) != len(in.Events) {
		t.Fatalf("decoded %d events, want %d", len(out.Events), len(in.Events))
	}
	for i := range in.Events {
		if out.Events[i] != in.Events[i] {
			t.Errorf("event %d round-trip mismatch:\n got %+v\nwant %+v", i, out.Events[i], in.Events[i])
		}
	}
}

// TestCodecCanonical pins the byte format: the encoding is the currency
// of the serial-vs-parallel identity tests, so its bytes must be a pure
// function of the trace.
func TestCodecCanonical(t *testing.T) {
	var a, b bytes.Buffer
	if err := Encode(&a, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same trace encoded to different bytes")
	}
	first := strings.SplitN(a.String(), "\n", 2)[0]
	if first != "mtr1 8 12" {
		t.Errorf("header = %q, want %q", first, "mtr1 8 12")
	}
	if !strings.Contains(a.String(), "5 MSG-QUEUED ep:-1:3:0 1 9 0\n") {
		t.Errorf("missing expected event line in:\n%s", a.String())
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad magic":      "mtr9 0 0\n",
		"count mismatch": "mtr1 2 2\n1 MSG-QUEUED ep:-1:3:0 1 9 0\n",
		"unknown kind":   "mtr1 1 1\n1 MSG-BOGUS ep:-1:3:0 1 9 0\n",
		"bad source":     "mtr1 1 1\n1 MSG-QUEUED nowhere 1 9 0\n",
		"short line":     "mtr1 1 1\n1 MSG-QUEUED ep:-1:3:0 1\n",
		"bad cycle":      "mtr1 1 1\nx MSG-QUEUED ep:-1:3:0 1 9 0\n",
	}
	for name, input := range cases {
		if _, err := Decode(strings.NewReader(input)); err == nil {
			t.Errorf("%s: Decode accepted %q", name, input)
		}
	}
}

func TestSourceStringRendering(t *testing.T) {
	cases := []struct {
		src  Source
		want string
	}{
		{RouterSource(2, 5, 0), "s2r5"},
		{RouterSource(2, 5, 1), "s2r5.m1"},
		{EndpointSource(3), "ep3"},
		{NetworkSource(-1), "net"},
		{NetworkSource(0), "net.s0"},
	}
	for _, c := range cases {
		if got := c.src.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := EvMsgQueued; k <= EvGaugeInFlight; k++ {
		name := k.String()
		if strings.HasPrefix(name, "Kind(") {
			t.Fatalf("kind %d has no mnemonic", k)
		}
		if got, ok := kindByName[name]; !ok || got != k {
			t.Errorf("kindByName[%q] = %v, %v; want %v", name, got, ok, k)
		}
	}
}
