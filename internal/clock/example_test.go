package clock_test

import (
	"fmt"

	"metro/internal/clock"
)

// shifter is a pipeline register: Eval stages the upstream value read as
// of the end of the previous cycle, Commit latches it, so a shifter is
// registered both as a component and as a latch. Two shifters chained
// through their q outputs form a pipeline, and because Eval everywhere
// reads only committed state, registration order cannot change the
// result — the property the engine's parallel mode exploits.
type shifter struct {
	in func() int // reads the upstream committed output
	q  int        // committed output
	d  int        // staged next value
}

func (s *shifter) Eval(cycle uint64)   { s.d = s.in() }
func (s *shifter) Commit(cycle uint64) { s.q = s.d }

// ExampleEngine drives a two-deep pipeline fed by the cycle number and
// shows the two-phase latching: a value injected on cycle c appears at
// the pipe's end two cycles later.
func ExampleEngine() {
	e := clock.New()
	source := 0
	first := &shifter{in: func() int { return source }}
	second := &shifter{in: func() int { return first.q }}
	e.Add(first, second)
	e.AddLatch(first, second)
	for i := 0; i < 4; i++ {
		source = i + 1 // present a new input for this cycle
		e.Step()
		fmt.Printf("after cycle %d: first=%d second=%d\n", e.Cycle(), first.q, second.q)
	}
	// Output:
	// after cycle 1: first=1 second=0
	// after cycle 2: first=2 second=1
	// after cycle 3: first=3 second=2
	// after cycle 4: first=4 second=3
}
