package kernel

import (
	"strconv"
	"strings"
	"testing"

	"metro/internal/core"
	"metro/internal/link"
	"metro/internal/prng"
	"metro/internal/word"
)

// The audit tests feed Compile hand-built plans. Units carry nil
// component pointers: Compile audits wiring and placement only and never
// steps them.

// wireName names link i of a test arena "wire<i>"; the audit's errors print
// it.
func wireName(i int) string { return "wire" + strconv.Itoa(i) }

// chainBuilder returns a builder with one delay-1 arena of capacity links
// and its first `placed` links placed as a chain: link i joins unit i (its
// A end) to unit i+1 (its B end). The placement is reader-major — unit 0
// reads register 0, unit i registers 2i-1 and 2i, so link i sits at
// ba = 2i, ab = 2i+1 — and refs[u] lists unit u's ends.
func chainBuilder(capacity, placed int) (*Builder, [][]LinkRef) {
	b := NewBuilder()
	a, ai := b.Arena(1, capacity)
	a.SetNamer(wireName)
	refs := make([][]LinkRef, placed+1)
	for i := 0; i < placed; i++ {
		idx := int32(a.Len())
		a.Place(2*i+1, 2*i)
		refs[i] = append(refs[i], LinkRef{Arena: ai, Index: idx, AtA: true})
		refs[i+1] = append(refs[i+1], LinkRef{Arena: ai, Index: idx})
	}
	return b, refs
}

func TestCompileAcceptsExactWiring(t *testing.T) {
	b, refs := chainBuilder(3, 3)
	b.AddColumn(make([]*core.Router, 1), refs[0]...)
	b.AddColumn(make([]*core.Router, 1), refs[1]...)
	b.AddEndpoint(nil, refs[2]...)
	b.AddEndpoint(nil, refs[3]...)
	c, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Units() != 4 || c.Links() != 3 || len(c.Arenas()) != 1 {
		t.Fatalf("plan has %d units, %d links, %d arenas; want 4, 3, 1", c.Units(), c.Links(), len(c.Arenas()))
	}
}

func TestCompileAuditErrors(t *testing.T) {
	// twoUnits attaches a one-link arena's ends to units 0 (A) and 1 (B).
	twoUnits := func(b *Builder) {
		b.AddEndpoint(nil, LinkRef{Index: 0, AtA: true})
		b.AddEndpoint(nil, LinkRef{Index: 0})
	}
	cases := []struct {
		name  string
		build func() *Builder
		want  string
	}{
		{"arena placed short", func() *Builder {
			b, refs := chainBuilder(3, 2)
			for _, r := range refs {
				b.AddEndpoint(nil, r...)
			}
			return b
		}, "arena 0 (delay 1) placed 2 of 3 links"},
		{"link end attached to no unit", func() *Builder {
			b, refs := chainBuilder(1, 1)
			b.AddEndpoint(nil, refs[0]...)
			b.AddEndpoint(nil) // the B end was never attached
			return b
		}, "link wire0 end B is attached to no unit"},
		{"link end attached to two units", func() *Builder {
			b, refs := chainBuilder(1, 1)
			b.AddEndpoint(nil, refs[0]...)
			b.AddEndpoint(nil, refs[1]...)
			b.AddColumn(make([]*core.Router, 1), refs[0]...)
			return b
		}, "link wire0 end A is attached to units 0 and 2, want one"},
		{"adjacency names an unplaced link", func() *Builder {
			b, refs := chainBuilder(1, 1)
			b.AddEndpoint(nil, refs[0]...)
			b.AddEndpoint(nil, refs[1]...)
			b.AddEndpoint(nil, LinkRef{Arena: 0, Index: 5})
			return b
		}, "names no placed link"},
		{"overlapping placement", func() *Builder {
			// Both links put their A→B direction in register 1, which
			// leaves register 3 unclaimed: one wire would deliver the
			// other's words.
			b := NewBuilder()
			a, _ := b.Arena(1, 2)
			a.SetNamer(wireName)
			a.Place(1, 0)
			a.Place(1, 2)
			twoUnits(b)
			return b
		}, "register 1 is claimed by two link directions (the second is wire1)"},
		{"holed placement", func() *Builder {
			// Unit 1 reads both links' A→B registers, but they sit at 1
			// and 3 with unit 0's second input between them: unit 1's run
			// has a hole, so its inputs are not adjacent in memory.
			b := NewBuilder()
			a, _ := b.Arena(1, 2)
			a.SetNamer(wireName)
			a.Place(1, 0)
			a.Place(3, 2)
			b.AddEndpoint(nil, LinkRef{Index: 0, AtA: true}, LinkRef{Index: 1, AtA: true})
			b.AddEndpoint(nil, LinkRef{Index: 0}, LinkRef{Index: 1})
			return b
		}, "register 1 is read by unit 1 but register 2 by unit 0; every unit's inputs must be one contiguous run, in unit order"},
		{"runs out of unit order", func() *Builder {
			// Each unit's run is contiguous (one register), but unit 1's
			// comes first.
			b := NewBuilder()
			a, _ := b.Arena(1, 1)
			a.SetNamer(wireName)
			a.Place(0, 1)
			twoUnits(b)
			return b
		}, "register 0 is read by unit 1 but register 1 by unit 0"},
	}
	for _, tc := range cases {
		c, err := tc.build().Compile()
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
// routers sharing a random stream: forward port 0 of lane k receives the
// route word routes[k] and then idle fill, for ten cycles. It reports
// whether either lane asserted BCB back to its source, and each lane's
// final backward in-use mask.
func columnRun(t *testing.T, routes [2]word.Word) (bcb bool, inUse [2]uint64) {
	t.Helper()
	cfg := core.Config{Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 2,
		DataPipe: 1, MaxVTD: 4, RandomInputs: 2, ScanPaths: 1}
	set := core.DefaultSettings(cfg)
	set.Dilation = 1
	sh, err := core.NewShape(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	shared := prng.NewShared(77)
	lanes := make([]*core.Router, 2)
	var src [2]*link.End // forward port 0 of each lane, source side
	var links []*link.Link
	for k := range lanes {
		lanes[k] = sh.NewRouter("col.m"+strconv.Itoa(k), shared.Fork())
		for fp := 0; fp < cfg.Inputs; fp++ {
			l := link.New("f", 1)
			lanes[k].AttachForward(fp, l.B())
			links = append(links, l)
			if fp == 0 {
				src[k] = l.A()
			}
		}
		for bp := 0; bp < cfg.Outputs; bp++ {
			l := link.New("b", 1)
			lanes[k].AttachBackward(bp, l.A())
			links = append(links, l)
		}
	}
	b := NewBuilder()
	b.AddColumn(lanes)
	c, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
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
// own dispatch: lanes that agree hold their connection, and lanes whose
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
