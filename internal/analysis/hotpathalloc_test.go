package analysis

import "testing"

func TestHotPathAllocFlagsDirectAllocations(t *testing.T) {
	got := runRule(t, HotPathAlloc(), "metro/internal/core", map[string]string{
		"a.go": `package core

type comp struct {
	buf  []int
	pipe []int
}

func (c *comp) Eval(cycle uint64) {
	c.buf = append(c.buf, 1)
	c.pipe = make([]int, 4)
}

func (c *comp) Commit(cycle uint64) {
	c.buf = []int{1, 2}
}
`,
	})
	wantFindings(t, got, "hot-path-alloc",
		[2]any{"a.go", 9},  // append
		[2]any{"a.go", 10}, // make
		[2]any{"a.go", 14}, // slice literal
	)
}

func TestHotPathAllocFollowsIntraPackageCalls(t *testing.T) {
	got := runRule(t, HotPathAlloc(), "metro/internal/core", map[string]string{
		"a.go": `package core

type comp struct{ buf []int }

func (c *comp) Eval(cycle uint64)   { c.step() }
func (c *comp) Commit(cycle uint64) {}

func (c *comp) step() { c.buf = grow(c.buf) }

func grow(s []int) []int { return append(s, 1) }
`,
	})
	wantFindings(t, got, "hot-path-alloc", [2]any{"a.go", 10})
}

func TestHotPathAllocBoxingAndStrings(t *testing.T) {
	got := runRule(t, HotPathAlloc(), "metro/internal/core", map[string]string{
		"a.go": `package core

import "fmt"

type comp struct {
	last interface{}
	name string
}

func (c *comp) Eval(cycle uint64) {
	c.last = cycle
	c.name = c.name + "x"
	fmt.Println(c.name)
}

func (c *comp) Commit(cycle uint64) {}
`,
	})
	wantFindings(t, got, "hot-path-alloc",
		[2]any{"a.go", 11}, // interface boxing
		[2]any{"a.go", 12}, // string concat
		[2]any{"a.go", 13}, // fmt call (reported once, not also as boxing)
	)
}

func TestHotPathAllocCleanAndSuppressed(t *testing.T) {
	got := runRule(t, HotPathAlloc(), "metro/internal/core", map[string]string{
		"a.go": `package core

type comp struct {
	buf   []int
	state int
	peer  *comp
}

func (c *comp) Eval(cycle uint64) {
	// In-place work: indexing, reslicing, copy, pointer handoff.
	c.buf = c.buf[:0]
	for i := 0; i < 4 && i < cap(c.buf); i++ {
		c.state += i
	}
	copy(c.buf[:cap(c.buf)], c.buf)
	c.peer = &*c.peer
	//metrovet:alloc retry path runs at most once per delivered message
	c.buf = append(c.buf, c.state)
}

func (c *comp) Commit(cycle uint64) { c.drain() }

// drain hands the assembled message to the consumer.
//
//metrovet:alloc per-message delivery, not per-cycle
func (c *comp) drain() {
	out := make([]int, len(c.buf))
	copy(out, c.buf)
}

// helper is NOT reachable from Eval/Commit: allocation is fine here.
func (c *comp) helper() []int { return make([]int, 8) }
`,
	})
	wantFindings(t, got, "hot-path-alloc")
}

func TestHotPathAllocIgnoresNonComponents(t *testing.T) {
	// An Eval that takes no cycle number is no clock.Component's.
	got := runRule(t, HotPathAlloc(), "metro/internal/core", map[string]string{
		"a.go": `package core

type expr struct{ buf []int }

func (x *expr) Eval(n int) { x.buf = make([]int, n) }
`,
	})
	wantFindings(t, got, "hot-path-alloc")
}

func TestHotPathAllocRootsEvalOnlyComponents(t *testing.T) {
	// Eval alone makes a clock.Component: components keep no clock-edge
	// state, so most declare no Commit.
	got := runRule(t, HotPathAlloc(), "metro/internal/core", map[string]string{
		"a.go": `package core

type comp struct{ buf []int }

func (c *comp) Eval(cycle uint64) { c.buf = make([]int, 8) }
`,
	})
	wantFindings(t, got, "hot-path-alloc", [2]any{"a.go", 5})
}
