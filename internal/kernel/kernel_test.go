package kernel

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"metro/internal/core"
	"metro/internal/link"
	"metro/internal/nic"
	"metro/internal/word"
)

// The audit tests wire real endpoints, and a real router where a column is
// wanted, to the links of a test arena: Compile reads each unit's inputs
// from the link ends the unit holds.

// wireName names link i of a test arena "wire<i>"; the audit's errors print
// it.
func wireName(i int) string { return "wire" + strconv.Itoa(i) }

// newEndpoints returns n endpoints of a one-lane shape, with no links.
func newEndpoints(t *testing.T, n int) []*nic.Endpoint {
	t.Helper()
	sh, err := nic.NewShape(nic.Config{Width: 8,
		AppendRouteDigits: func(dst []int, dest int) []int { return dst }})
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*nic.Endpoint, n)
	for e := range eps {
		eps[e] = sh.NewEndpoint(e)
	}
	return eps
}

// newArena returns a builder with one delay-1 arena of capacity links,
// named by wireName.
func newArena(capacity int) (*Builder, *link.Arena) {
	b := NewBuilder()
	a := b.Arena(1, capacity)
	a.SetNamer(wireName)
	return b, a
}

// chain returns a builder whose one delay-1 arena has room for capacity
// links and its first `placed` placed as a chain through placed+1
// endpoints: link i leaves endpoint i (its A end, an injection lane) and
// enters endpoint i+1 (its B end, a delivery lane). The placement is
// reader-major: endpoint i reads registers 2i-1 (link i-1's A→B) and 2i
// (link i's B→A), so link i sits at ab = 2i+1, ba = 2i. The endpoints are
// not yet added to the builder.
func chain(t *testing.T, capacity, placed int) (*Builder, []*nic.Endpoint) {
	t.Helper()
	b, a := newArena(capacity)
	eps := newEndpoints(t, placed+1)
	for i := 0; i < placed; i++ {
		l := a.Place(2*i+1, 2*i)
		eps[i].AttachInject(l.A())
		eps[i+1].AttachDeliver(l.B())
	}
	return b, eps
}

// pair wires endpoint 0 to endpoint 1 over every link of an arena the
// caller has placed: 0 holds the A ends, 1 the B ends. It adds both.
func pair(t *testing.T, b *Builder, a *link.Arena) {
	t.Helper()
	eps := newEndpoints(t, 2)
	for i := 0; i < a.Len(); i++ {
		eps[0].AttachInject(a.At(i).A())
		eps[1].AttachDeliver(a.At(i).B())
	}
	b.AddEndpoint(eps[0])
	b.AddEndpoint(eps[1])
}

// misstaged returns a copy of e that stages into register s, as a corrupted
// copy of an end would. End's fields are unexported, so the stage register
// is written where TestLayoutPinEndAndLink pins it: the second int32 after
// the arena pointer.
func misstaged(e link.End, s int32) link.End {
	regs := (*[2]int32)(unsafe.Add(unsafe.Pointer(&e), unsafe.Sizeof(uintptr(0))))
	regs[1] = s
	return e
}

// newRouter returns a 4x4 router with no links.
func newRouter(t *testing.T, name string, seed uint32) *core.Router {
	t.Helper()
	cfg := core.Config{Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 2,
		DataPipe: 1, MaxVTD: 4, RandomInputs: 2, ScanPaths: 1}
	set := core.DefaultSettings(cfg)
	set.Dilation = 1
	sh, err := core.NewShape(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	return sh.NewRouter(name, seed)
}

// TestCompileAcceptsExactWiring compiles a router column between two
// endpoints: endpoint 0 feeds the router's forward port 0 over wire0, and
// its backward port 0 delivers to endpoint 1 over wire1. The column is
// unit 0 and reads registers 0 (wire0's A→B) and 1 (wire1's B→A); the
// endpoints are units 1 and 2, reading wire0's B→A at 2 and wire1's A→B
// at 3. The router's other ports are unattached and hold nothing.
func TestCompileAcceptsExactWiring(t *testing.T) {
	b, a := newArena(2)
	eps := newEndpoints(t, 2)
	r := newRouter(t, "r", 1)
	in, out := a.Place(0, 2), a.Place(3, 1)
	eps[0].AttachInject(in.A())
	r.AttachForward(0, in.B())
	r.AttachBackward(0, out.A())
	eps[1].AttachDeliver(out.B())
	b.AddEndpoint(eps[0])
	b.AddColumn([]*core.Router{r}) // columns are units [0, columns) whenever added
	b.AddEndpoint(eps[1])
	c, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Units() != 3 || c.Links() != 2 || len(c.Arenas()) != 1 {
		t.Fatalf("plan has %d units, %d links, %d arenas; want 3, 2, 1", c.Units(), c.Links(), len(c.Arenas()))
	}
}

func TestCompileAuditErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *Builder
		want  string
	}{
		{"arena placed short", func(t *testing.T) *Builder {
			b, eps := chain(t, 3, 2)
			for _, ep := range eps {
				b.AddEndpoint(ep)
			}
			return b
		}, "arena 0 (delay 1) placed 2 of 3 links"},
		{"link end held by no unit", func(t *testing.T) *Builder {
			b, eps := chain(t, 1, 1)
			b.AddEndpoint(eps[0]) // endpoint 1, holding the B end, is left out
			return b
		}, "link wire0 end B is held by no unit"},
		{"link end held by two units", func(t *testing.T) *Builder {
			b, eps := chain(t, 1, 1)
			b.AddEndpoint(eps[0])
			b.AddEndpoint(eps[1])
			extra := newEndpoints(t, 1)[0]
			extra.AttachInject(b.c.arenas[0].At(0).A()) // endpoint 0 holds it too
			b.AddEndpoint(extra)
			return b
		}, "link wire0 end A is held by units 0 and 2, want one"},
		{"held end staging into another register", func(t *testing.T) *Builder {
			// Endpoint 1 holds wire0's B end, reading wire0's A→B register
			// as it should, but its copy stages into wire1's A→B register
			// instead of wire0's B→A one: its replies would leave on the
			// wrong wire.
			b, a := newArena(2)
			eps := newEndpoints(t, 3)
			w0, w1 := a.Place(1, 0), a.Place(3, 2)
			eps[0].AttachInject(w0.A())
			eps[1].AttachInject(w1.A())
			eps[1].AttachDeliver(misstaged(w0.B(), 3))
			eps[2].AttachDeliver(w1.B())
			for _, ep := range eps {
				b.AddEndpoint(ep)
			}
			return b
		}, "link wire0 end B, held by unit 1, does not stage into its link's other register"},
		{"held end outside the plan", func(t *testing.T) *Builder {
			// Endpoint 0 also injects into a wire made by link.New, not
			// placed in the plan's arena: nothing would latch it.
			b, eps := chain(t, 1, 1)
			eps[0].AttachInject(link.New("stray", 1).A())
			b.AddEndpoint(eps[0])
			b.AddEndpoint(eps[1])
			return b
		}, "link stray end A, held by unit 0, lies in an arena outside the plan"},
		{"overlapping placement", func(t *testing.T) *Builder {
			// Both links put their A→B direction in register 1, which
			// leaves register 3 unclaimed: one wire would deliver the
			// other's words.
			b, a := newArena(2)
			a.Place(1, 0)
			a.Place(1, 2)
			pair(t, b, a)
			return b
		}, "register 1 is claimed by two link directions (the second is wire1)"},
		{"holed placement", func(t *testing.T) *Builder {
			// Unit 1 reads both links' A→B registers, but they sit at 1
			// and 3 with unit 0's second input between them: unit 1's run
			// has a hole, so its inputs are not adjacent in memory.
			b, a := newArena(2)
			a.Place(1, 0)
			a.Place(3, 2)
			pair(t, b, a)
			return b
		}, "register 1 is read by unit 1 but register 2 by unit 0; every unit's inputs must be one contiguous run, in unit order"},
		{"runs out of unit order", func(t *testing.T) *Builder {
			// Each unit's run is contiguous (one register), but unit 1's
			// comes first.
			b, a := newArena(1)
			a.Place(0, 1)
			pair(t, b, a)
			return b
		}, "register 0 is read by unit 1 but register 1 by unit 0"},
		{"units hold each other's ends", func(t *testing.T) *Builder {
			// The placement is right for endpoint 0 holding the A end and
			// endpoint 1 the B end, but the wiring is swapped, so each
			// reads the register placed for the other.
			b, a := newArena(1)
			l := a.Place(1, 0)
			eps := newEndpoints(t, 2)
			eps[0].AttachDeliver(l.B())
			eps[1].AttachInject(l.A())
			b.AddEndpoint(eps[0])
			b.AddEndpoint(eps[1])
			return b
		}, "register 0 is read by unit 1 but register 1 by unit 0"},
	}
	for _, tc := range cases {
		c, err := tc.build(t).Compile()
		if err == nil {
			t.Errorf("%s: Compile accepted the plan (%d units)", tc.name, c.Units())
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

// columnRun drives a compiled plan holding one 2-lane column of 4x4
// routers whose LFSRs are seeded alike: forward port 0 of lane k receives
// the route word routes[k] and then idle fill, for ten cycles. It reports
// whether either lane asserted BCB back to its source, and each lane's
// final backward in-use mask.
func columnRun(t *testing.T, routes [2]word.Word) (bcb bool, inUse [2]uint64) {
	t.Helper()
	lanes := make([]*core.Router, 2)
	var src [2]link.End // forward port 0 of each lane, source side
	var links []*link.Link
	for k := range lanes {
		lanes[k] = newRouter(t, "col.m"+strconv.Itoa(k), 77)
		for fp := 0; fp < lanes[k].Config().Inputs; fp++ {
			l := link.New("f", 1)
			lanes[k].AttachForward(fp, l.B())
			links = append(links, l)
			if fp == 0 {
				src[k] = l.A()
			}
		}
		for bp := 0; bp < lanes[k].Config().Outputs; bp++ {
			l := link.New("b", 1)
			lanes[k].AttachBackward(bp, l.A())
			links = append(links, l)
		}
	}
	// The links are the test's own, committed here, so the plan is built
	// directly: Compile rejects ends outside its arenas.
	c := &Compiled{lanes: lanes, cols: 1, colLanes: 2}
	for cycle := uint64(0); cycle < 10; cycle++ {
		for k, e := range src {
			w := word.Word{Kind: word.DataIdle}
			if cycle == 0 {
				w = routes[k]
			}
			e.Send(w)
			bcb = bcb || e.RecvBCB()
		}
		c.EvalUnits(0, c.Units(), cycle)
		c.CommitUnits(0, c.Units(), cycle)
		for _, l := range links {
			l.Commit(cycle)
		}
	}
	return bcb, [2]uint64{lanes[0].BackwardInUse(), lanes[1].BackwardInUse()}
}

// TestColumnUnitRunsTheWiredAND drives a column through the kernel's
// own dispatch (EvalUnits): lanes that agree hold their connection, and lanes whose
// route words disagree (lane 1's header corrupted) allocate different
// backward ports, which the wired-AND check must kill on both lanes with
// BCB asserted to the source.
func TestColumnUnitRunsTheWiredAND(t *testing.T) {
	route := word.MakeRoute(1, 2)
	if bcb, inUse := columnRun(t, [2]word.Word{route, route}); bcb || inUse[0] == 0 || inUse[0] != inUse[1] {
		t.Fatalf("agreeing lanes: bcb %v, in use %#x; want the connection held on both", bcb, inUse)
	}
	bcb, inUse := columnRun(t, [2]word.Word{route, word.MakeRoute(2, 2)})
	if !bcb || inUse != [2]uint64{} {
		t.Fatalf("disagreeing lanes: bcb %v, in use %#x; want the connection killed on both", bcb, inUse)
	}
}

func TestAddColumnPanicsOnLaneCountMismatch(t *testing.T) {
	b := NewBuilder()
	b.AddColumn(make([]*core.Router, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("AddColumn accepted a 1-lane column in a plan of 2-lane columns")
		}
	}()
	b.AddColumn(make([]*core.Router, 1))
}

// TestRangesClearTheReadPlane steps a compiled chain of endpoints the way a
// partitioned engine does: it fills every register of the read plane, with
// one link killed and another corrupted so the arena is faulty, evaluates a
// shuffled split of the units as ranges, then calls CommitBatch(0, 1). Every
// register of the read plane must then be empty, and each fault byte must
// still be set: a dead link still reports Dead, which reads the register's
// fault byte first.
func TestRangesClearTheReadPlane(t *testing.T) {
	const links = 12
	for _, faulty := range []bool{false, true} {
		b, eps := chain(t, links, links)
		for _, ep := range eps {
			b.AddEndpoint(ep)
		}
		c, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		a := c.Arenas()[0]
		calls := 0
		if faulty {
			a.At(3).Kill()
			a.At(7).SetCorruptor(func(w word.Word) word.Word { calls++; return w }, nil)
		}
		w8, err := word.NewWidth(8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < links; i++ {
			for _, end := range [2]link.End{a.At(i).A(), a.At(i).B()} {
				end.Send(word.MakeData(uint32(i+1), w8))
				end.SendBCB(true)
			}
		}
		a.Commit(0) // the plane just staged is the one read at cycle 1
		for i := 0; i < links; i++ {
			if end := a.At(i).B(); end.Recv().Kind == word.Empty && !end.Dead() {
				t.Fatalf("faulty=%v link %d: the read plane was not filled", faulty, i)
			}
		}

		rng := rand.New(rand.NewSource(int64(links)))
		cuts := []int{0, c.Units()}
		for len(cuts) < 6 {
			cuts = append(cuts, rng.Intn(c.Units()+1))
		}
		slices.Sort(cuts)
		order := rng.Perm(len(cuts) - 1)
		for _, k := range order {
			c.EvalUnits(cuts[k], cuts[k+1], 1)
		}
		c.CommitBatch(0, 1, 1)

		calls = 0
		for i := 0; i < links; i++ {
			l := a.At(i)
			for _, end := range [2]link.End{l.A(), l.B()} {
				if w, bcb := end.Recv(), end.RecvBCB(); w != (word.Word{}) || bcb {
					t.Errorf("faulty=%v link %d: read plane holds %v, BCB %v after the clear; want empty", faulty, i, w, bcb)
				}
				if got, want := end.Dead(), faulty && i == 3; got != want {
					t.Errorf("faulty=%v link %d: Dead() = %v after the clear, want %v", faulty, i, got, want)
				}
			}
		}
		if calls != 0 {
			t.Errorf("faulty=%v: the corruptor saw %d words in the cleared plane", faulty, calls)
		}
	}
}
