package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"metro/internal/link"
	"metro/internal/nic"
	"metro/internal/scan"
	"metro/internal/telemetry"
	"metro/internal/word"
)

// faultScript is an epilogue component that breaks and mends wires of a
// running network on fixed cycles, as a fault injector does: it kills a
// link and an injection link and revives both, and installs a counting
// stuck-bit corruptor on one link and later removes it. Each changes the
// fault bytes of the arena registers in every plane, and while any is set
// the arena clears its read plane register by register rather than with
// one memclr.
type faultScript struct {
	killed, injected, corrupted link.Link
	calls                       int // corruptor invocations
}

func (f *faultScript) Eval(cycle uint64) {
	switch cycle {
	case 90:
		f.injected.Kill()
	case 150:
		f.corrupted.SetCorruptor(func(w word.Word) word.Word {
			f.calls++
			w.Payload |= 1
			return w
		}, nil)
	case 200:
		f.killed.Kill()
	case 260:
		f.injected.Revive()
	case 330:
		f.killed.Revive()
	case 420:
		f.corrupted.SetCorruptor(nil, nil)
	}
}

// faulted is everything a faulted run is compared on.
type faulted struct {
	results    []nic.Result
	deliveries []string // "cycle dest intact payload", in callback order
	captures   []string // the EXTEST neighbour's boundary SAMPLE, between steps
	trace      []byte   // the mtr1 encoding of the recorded trace
	calls      int      // corruptor invocations
}

// runFaulted runs the congested Figure 3 scenario with a fault script, a
// flight recorder sampling gauges every cycle, and a boundary-scan register
// driving EXTEST words onto a disabled backward port from the epilogue, on
// the reference stepper or on the compiled kernel at the given worker count.
func runFaulted(t *testing.T, reference bool, workers int) faulted {
	t.Helper()
	var out faulted
	rec := telemetry.New(telemetry.Options{Capacity: 1 << 20})
	p := fig3Results.p
	p.Workers, p.Recorder = workers, rec
	var cycle uint64
	p.OnDeliver = func(dest int, payload []byte, intact bool) {
		out.deliveries = append(out.deliveries, fmt.Sprintf("%d %d %v %x", cycle, dest, intact, payload))
	}
	n, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if reference {
		n.Engine.SetKernel(NewReference(n))
	}
	script := &faultScript{
		killed:    n.OutLink(0, 3, 1),
		injected:  n.InjectLink(5, 0),
		corrupted: n.OutLink(1, 2, 0),
	}
	n.Engine.Add(script)
	// Stage 1 router 0 drives its disabled backward port 3 under EXTEST;
	// the stage-2 router at the far end of that wire samples it.
	driver := n.RouterAt(1, 0)
	driver.SetBackwardEnabled(3, false)
	bs := scan.NewBoundary(driver)
	bs.Update(bs.OutputCellBits(map[int]uint32{3: 0xa5}))
	n.Engine.Add(bs)
	far := n.Topo.Out(1, 0, 3)
	sample := scan.NewBoundary(n.RouterAt(2, far.Index))

	cycles := 600
	if testing.Short() {
		cycles = 450
	}
	rng := rand.New(rand.NewSource(fig3Results.injectSeed))
	eps := p.Spec.Endpoints
	for ; cycle < uint64(cycles); cycle++ {
		for k := 0; k < fig3Results.perCycle; k++ {
			src, dest := rng.Intn(eps), rng.Intn(eps)
			if dest == src {
				dest = (dest + 1) % eps
			}
			n.Send(src, dest, []byte{byte(cycle), byte(src), byte(dest)})
		}
		n.Engine.Step()
		out.captures = append(out.captures, fmt.Sprint(sample.InputCell(sample.Capture(), far.Port)))
	}
	out.results = n.Results()
	out.calls = script.calls
	var buf bytes.Buffer
	if err := telemetry.Encode(&buf, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out.trace = buf.Bytes()
	return out
}

// TestParallelDifferentialFaulted holds the compiled kernel to the
// reference stepper while the wires fail and recover mid-run and the
// epilogue drives them: the reference clears every link after the
// epilogue, and the kernel's clear must be indistinguishable from it in
// the completed messages, the deliveries, the trace bytes, what a scan
// SAMPLE reads between steps and how often the corruptor was asked.
func TestParallelDifferentialFaulted(t *testing.T) {
	want := runFaulted(t, true, 1)
	if want.calls == 0 || len(want.deliveries) == 0 || len(want.results) == 0 || !slices.Contains(want.captures, "165") {
		t.Fatalf("reference run saw %d corruptor calls, %d deliveries and %d results, EXTEST word sampled %v; the differential compares nothing",
			want.calls, len(want.deliveries), len(want.results), slices.Contains(want.captures, "165"))
	}
	for _, w := range []int{1, 2, 8} {
		got := runFaulted(t, false, w)
		if !reflect.DeepEqual(got.results, want.results) {
			t.Errorf("workers=%d: %d results diverge from the reference stepper's %d (first divergence: %s)",
				w, len(got.results), len(want.results), firstDivergence(got.results, want.results))
		}
		if !reflect.DeepEqual(got.deliveries, want.deliveries) {
			t.Errorf("workers=%d: %d deliveries diverge from the reference stepper's %d", w, len(got.deliveries), len(want.deliveries))
		}
		if !reflect.DeepEqual(got.captures, want.captures) {
			t.Errorf("workers=%d: boundary samples diverge from the reference stepper's", w)
		}
		if !bytes.Equal(got.trace, want.trace) {
			t.Errorf("workers=%d: recorded trace diverges from the reference stepper's (%d vs %d bytes)", w, len(got.trace), len(want.trace))
		}
		if got.calls != want.calls {
			t.Errorf("workers=%d: corruptor called %d times, the reference stepper %d", w, got.calls, want.calls)
		}
	}
}
