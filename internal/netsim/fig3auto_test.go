package netsim_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"metro/internal/netsim"
	"metro/internal/nic"
	"metro/internal/telemetry"
	"metro/internal/topo"
	"metro/internal/traffic"
)

// fig3ClosedLoop runs metrosim's Figure 3 closed loop (load 0.9, 20-byte
// messages, one outstanding per endpoint) at the given worker count with
// a flight recorder attached, and returns the encoded trace followed by
// the result stream, one line per completed message, with the partition
// count the engine stepped in.
func fig3ClosedLoop(t *testing.T, workers int, cycles uint64) ([]byte, int) {
	t.Helper()
	rec := telemetry.New(telemetry.Options{Capacity: 1 << 20})
	driver := &traffic.ClosedLoop{Load: 0.9, MsgBytes: 20, Outstanding: 1, Seed: 1001}
	var stream bytes.Buffer
	n, err := netsim.Build(netsim.Params{
		Spec: topo.Figure3(), Width: 8, DataPipe: 1, LinkDelay: 1,
		FastReclaim: true, CascadeWidth: 1, Seed: 1, RetryLimit: 1000,
		Workers: workers, Recorder: rec,
		OnResult: func(r nic.Result) {
			driver.OnResult(r)
			fmt.Fprintf(&stream, "%+v\n", r)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	driver.Bind(n)
	n.Run(cycles)
	var out bytes.Buffer
	if err := telemetry.Encode(&out, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if stream.Len() == 0 {
		t.Fatal("the closed loop completed no messages; the pin compares nothing")
	}
	out.Write(stream.Bytes())
	return out.Bytes(), n.Engine.Partitions()
}

// TestFigure3AutoMatchesInline pins the default engine on the paper's
// Figure 3 network: on two processors Workers = 0 runs its 128 units on
// two lanes of eight ranges each, on one it stays inline, and either way
// the recorded trace bytes and the result stream equal the explicit
// inline run's.
func TestFigure3AutoMatchesInline(t *testing.T) {
	cycles := uint64(3000)
	if testing.Short() {
		cycles = 800
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ procs, parts int }{{2, 16}, {1, 1}} {
		runtime.GOMAXPROCS(tc.procs)
		want, inlineParts := fig3ClosedLoop(t, 1, cycles)
		got, parts := fig3ClosedLoop(t, 0, cycles)
		if inlineParts != 1 || parts != tc.parts {
			t.Errorf("GOMAXPROCS=%d: Partitions() = %d at Workers = 1 and %d at Workers = 0, want 1 and %d",
				tc.procs, inlineParts, parts, tc.parts)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: Workers = 0 wrote %d trace and result bytes that differ from the inline run's %d",
				tc.procs, len(got), len(want))
		}
	}
}
