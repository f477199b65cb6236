package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"metro/internal/link"
	"metro/internal/nic"
	"metro/internal/telemetry"
	"metro/internal/topo"
)

// The differential family: every scenario below runs once on the
// reference stepper (reference.go — virtual per-component dispatch,
// per-link Clear) and once per worker count on the compiled kernel, and
// the two must agree bit for bit on the completed-message stream or on
// the recorded trace bytes. TestKernel* members run the kernel at the
// default workers = 0, which the engine resolves to inline on these
// paper-sized networks, isolating the compiled dispatch and the batched
// arena clear; TestParallel* members run it at 1, 2, 4 and 8 workers,
// adding the index-range partition and the eval barrier. A failure in
// only the second group is a partitioning bug; -race watches both. The
// reference stepper always runs at workers = 1.
var (
	inline      = []int{0}
	partitioned = []int{1, 2, 4, 8}
)

// congested is one differential scenario: a network driven far past
// saturation by a fixed injection schedule.
type congested struct {
	p             Params
	injectSeed    int64
	perCycle      int
	cycles, short int // run length; short under -short
}

var (
	// The congested Figure 3 multibutterfly with detailed blocked replies.
	fig3Results = congested{
		p: Params{
			Spec: topo.Figure3(), Width: 8, DataPipe: 2, LinkDelay: 1,
			FastReclaim: false, Seed: 71, RetryLimit: 600, ListenTimeout: 200,
		},
		injectSeed: 17, perCycle: 2, cycles: 1500, short: 600,
	}
	// Cascade width 2: every column's lanes share the wired-AND check, so
	// a partition (or a unit order) that split or reordered them would
	// race under -race or drift here.
	cascadeResults = congested{
		p: Params{
			Spec: topo.Figure1(), Width: 4, CascadeWidth: 2, DataPipe: 2,
			LinkDelay: 1, FastReclaim: false, Seed: 29, RetryLimit: 400,
			ListenTimeout: 150,
		},
		injectSeed: 23, perCycle: 1, cycles: 1200, short: 500,
	}
	// Mixed injection and inter-stage link delays force several
	// delay-class arenas — two, three and four register planes side by
	// side, a router's forward and backward inputs in different arenas —
	// which must stay cycle-exact against per-link commits.
	variableDelayResults = congested{
		p: Params{
			Spec: topo.Figure3(), Width: 8, DataPipe: 2, LinkDelay: 1,
			StageLinkDelays: []int{2, 1, 3, 1}, FastReclaim: true,
			Seed: 5, RetryLimit: 500, ListenTimeout: 250,
		},
		injectSeed: 41, perCycle: 2, cycles: 800, short: 400,
	}
	fig3Trace = congested{
		p:          fig3Results.p,
		injectSeed: 17, perCycle: 2, cycles: 1200, short: 500,
	}
	// With CascadeWidth = 2 every logical router contributes two event
	// sources (lane IDs distinguish them) sharing one column buffer.
	cascadeTrace = congested{
		p: Params{
			Spec: topo.Figure1(), Width: 4, DataPipe: 1, LinkDelay: 1,
			CascadeWidth: 2, FastReclaim: true, Seed: 5, RetryLimit: 300,
			ListenTimeout: 300,
		},
		injectSeed: 23, perCycle: 1, cycles: 400, short: 200,
	}
)

func TestKernelDifferentialCongestedFigure3(t *testing.T)   { fig3Results.diffResults(t, inline) }
func TestParallelDifferentialCongestedFigure3(t *testing.T) { fig3Results.diffResults(t, partitioned) }
func TestKernelDifferentialCascade(t *testing.T)            { cascadeResults.diffResults(t, inline) }
func TestParallelDifferentialCascade(t *testing.T)          { cascadeResults.diffResults(t, partitioned) }
func TestKernelDifferentialVariableDelays(t *testing.T)     { variableDelayResults.diffResults(t, inline) }
func TestParallelDifferentialVariableDelays(t *testing.T) {
	variableDelayResults.diffResults(t, partitioned)
}
func TestKernelTraceIdentityCongestedFigure3(t *testing.T)   { fig3Trace.diffTraces(t, inline) }
func TestParallelTraceIdentityCongestedFigure3(t *testing.T) { fig3Trace.diffTraces(t, partitioned) }
func TestKernelTraceIdentityCascade(t *testing.T)            { cascadeTrace.diffTraces(t, inline) }
func TestParallelTraceIdentityCascade(t *testing.T)          { cascadeTrace.diffTraces(t, partitioned) }

// run executes the scenario once — on the reference stepper, or on the
// compiled kernel at the given worker count — auditing every router
// lane's invariants on every cycle, and returns every completed-message
// report in observation order: per-message latencies (Injected/Done),
// retry counts, delivery flags and their exact order, all in one
// comparable value. rec, when non-nil, records the run.
func (c congested) run(t *testing.T, reference bool, workers int, rec *telemetry.Recorder) []nic.Result {
	t.Helper()
	p := c.p
	p.Workers, p.Recorder = workers, rec
	n, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if reference {
		n.Engine.SetKernel(NewReference(n))
	}
	cycles := c.cycles
	if testing.Short() {
		cycles = c.short
	}
	rng := rand.New(rand.NewSource(c.injectSeed))
	eps := p.Spec.Endpoints
	for cycle := 0; cycle < cycles; cycle++ {
		for k := 0; k < c.perCycle; k++ {
			src := rng.Intn(eps)
			dest := rng.Intn(eps)
			if dest == src {
				dest = (dest + 1) % eps
			}
			n.Send(src, dest, []byte{byte(cycle), byte(src), byte(dest)})
		}
		n.Engine.Step()
		for s := range n.Routers {
			for _, lanes := range n.Routers[s] {
				for k, r := range lanes {
					if err := r.CheckInvariants(); err != nil {
						t.Fatalf("reference=%v workers=%d cycle %d lane %d: %v", reference, workers, cycle, k, err)
					}
				}
			}
		}
	}
	return n.Results()
}

// diffResults demands that the compiled kernel at every listed worker
// count reproduces the reference stepper's result stream bit for bit —
// same per-message latencies, same retry counts, same order.
func (c congested) diffResults(t *testing.T, workers []int) {
	want := c.run(t, true, 1, nil)
	if len(want) == 0 {
		t.Fatal("congested run completed no messages; the differential compares nothing")
	}
	for _, w := range workers {
		got := c.run(t, false, w, nil)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("kernel workers=%d: %d results diverge from the reference stepper's %d (first divergence: %s)",
				w, len(got), len(want), firstDivergence(got, want))
		}
	}
}

// trace runs the scenario with the flight recorder attached and returns
// the canonical mtr1 encoding of the recorded trace — the byte-identity
// currency of the observability differential.
func (c congested) trace(t *testing.T, reference bool, workers int) []byte {
	t.Helper()
	rec := telemetry.New(telemetry.Options{Capacity: 1 << 20})
	c.run(t, reference, workers, rec)
	var buf bytes.Buffer
	if err := telemetry.Encode(&buf, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// diffTraces is the observability gate: the full recorded event stream —
// message lifecycle, connection lifecycle, per-cycle gauges — must be
// byte-identical between the reference stepper and the compiled kernel
// at every listed worker count. Event buffering is per unit and the
// merge happens at the cycle barrier in registration order, so neither
// the flattened layout, the index-range partition nor any goroutine
// interleaving may show through.
func (c congested) diffTraces(t *testing.T, workers []int) {
	want := c.trace(t, true, 1)
	ref, err := telemetry.Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("reference trace does not decode: %v", err)
	}
	families := map[string]int{}
	for _, e := range ref.Events {
		families[e.Kind.Family()]++
	}
	if families["msg"] == 0 || families["conn"] == 0 || families["gauge"] == 0 {
		t.Fatalf("trace families missing: %v", families)
	}
	for _, w := range workers {
		if got := c.trace(t, false, w); !bytes.Equal(got, want) {
			t.Errorf("kernel workers=%d: recorded trace diverges from the reference stepper's (%d vs %d bytes)",
				w, len(got), len(want))
		}
	}
}

// firstDivergence renders the first position where two result streams
// disagree, for readable failure messages.
func firstDivergence(got, want []nic.Result) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("index %d: got {id %d done %d retries %d}, want {id %d done %d retries %d}",
				i, got[i].Msg.ID, got[i].Done, got[i].Retries,
				want[i].Msg.ID, want[i].Done, want[i].Retries)
		}
	}
	return fmt.Sprintf("lengths differ: got %d, want %d", len(got), len(want))
}

// TestKernelWiringAudit pins the shape of a built network's compiled plan
// (Compile's own audit has already held every link end to exactly one
// unit): the arenas hold one link per cascade lane of every topology wire,
// and there is one unit per router column and per endpoint. It also reads the
// reader-major placement back off the routers: port p of a router reads the
// register p places after port 0's, forward and backward alike, in one
// delay class and in several.
func TestKernelWiringAudit(t *testing.T) {
	for _, tc := range []struct {
		cascade int
		delays  []int // per link tier; nil = one delay class
	}{{1, nil}, {2, []int{2, 1, 3, 1}}} {
		c := tc.cascade
		n, err := Build(Params{Spec: topo.Figure3(), Width: 8, CascadeWidth: c, StageLinkDelays: tc.delays})
		if err != nil {
			t.Fatal(err)
		}
		for s := range n.Routers {
			for _, lanes := range n.Routers[s] {
				for _, r := range lanes {
					fwd := func(fp int) int { e := r.ForwardLink(fp); ab, _ := e.Link().Registers(); return ab }
					bwd := func(bp int) int { e := r.BackwardLink(bp); _, ba := e.Link().Registers(); return ba }
					f0 := fwd(0)
					for fp := 0; fp < r.Config().Inputs; fp++ {
						if ab := fwd(fp); ab != f0+fp {
							t.Fatalf("cascade %d: %s forward port %d reads register %d, want %d", c, r.Name(), fp, ab, f0+fp)
						}
					}
					b0 := bwd(0)
					for bp := 0; bp < r.Config().Outputs; bp++ {
						if ba := bwd(bp); ba != b0+bp {
							t.Fatalf("cascade %d: %s backward port %d reads register %d, want %d", c, r.Name(), bp, ba, b0+bp)
						}
					}
				}
			}
		}
		links := n.Compiled.Links()
		if want := c * n.Topo.LinkCount(); links != want {
			t.Fatalf("cascade %d: compiled plan holds %d links, topology has %d wires of %d lanes", c, links, want/c, c)
		}
		visited := 0
		n.EachLink(func(*link.Link) { visited++ })
		if visited != links {
			t.Fatalf("cascade %d: EachLink visited %d of %d links", c, visited, links)
		}
		units := n.Compiled.Units()
		if want := n.Topo.RouterCount() + len(n.Endpoints); units != want {
			t.Fatalf("cascade %d: compiled plan has %d units, want %d (columns + endpoints)", c, units, want)
		}
	}
}
