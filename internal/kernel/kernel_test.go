package kernel

import (
	"strings"
	"testing"
)

// The audit tests feed Compile hand-built plans. Units carry nil
// component pointers: Compile audits wiring only and never steps them.

// pairBuilder returns a builder with one delay-1 arena of capacity links
// and its first `carved` links carved, each correctly referenced by the
// two units u and u+1.
func pairBuilder(capacity, carved int) (*Builder, [][]LinkRef) {
	b := NewBuilder()
	a, ai := b.Arena(1, capacity)
	refs := make([][]LinkRef, carved+1)
	for i := 0; i < carved; i++ {
		ref := LinkRef{Arena: ai, Index: int32(a.Len())}
		a.New("wire" + string(rune('0'+i)))
		refs[i] = append(refs[i], ref)
		refs[i+1] = append(refs[i+1], ref)
	}
	return b, refs
}

func TestCompileAcceptsExactWiring(t *testing.T) {
	b, refs := pairBuilder(3, 3)
	b.AddRouter(nil, refs[0]...)
	b.AddCascade(nil, refs[1]...)
	b.AddEndpoint(nil, refs[2]...)
	b.AddEndpoint(nil, refs[3]...)
	c, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Units() != 4 || c.Links() != 3 || len(c.Arenas()) != 1 {
		t.Fatalf("plan has %d units, %d links, %d arenas; want 4, 3, 1", c.Units(), c.Links(), len(c.Arenas()))
	}
	for u, want := range []int{1, 2, 2, 1} {
		if got := len(c.UnitLinks(u)); got != want {
			t.Errorf("unit %d has %d attached links, want %d", u, got, want)
		}
	}
	if l := c.LinkAt(c.UnitLinks(3)[0]); l.Name() != "wire2" {
		t.Errorf("unit 3's link resolves to %q, want wire2", l.Name())
	}
}

func TestCompileAuditErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Builder
		want  string
	}{
		{"arena carved short", func() *Builder {
			b, refs := pairBuilder(3, 2)
			for _, r := range refs {
				b.AddEndpoint(nil, r...)
			}
			return b
		}, "arena 0 (delay 1) carved 2 of 3 links"},
		{"link referenced by one unit", func() *Builder {
			b, refs := pairBuilder(1, 1)
			b.AddEndpoint(nil, refs[0]...)
			b.AddEndpoint(nil) // the far end was never attached
			return b
		}, "link wire0 referenced by 1 units, want 2"},
		{"link referenced by three units", func() *Builder {
			b, refs := pairBuilder(1, 1)
			b.AddEndpoint(nil, refs[0]...)
			b.AddEndpoint(nil, refs[1]...)
			b.AddRouter(nil, refs[0]...)
			return b
		}, "link wire0 referenced by 3 units, want 2"},
		{"adjacency names an uncarved link", func() *Builder {
			b, refs := pairBuilder(1, 1)
			b.AddEndpoint(nil, refs[0]...)
			b.AddEndpoint(nil, refs[1]...)
			b.AddEndpoint(nil, LinkRef{Arena: 0, Index: 5})
			return b
		}, "names no carved link"},
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
