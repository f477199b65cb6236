package clock

import "testing"

// probe records the order of its Eval/Commit calls.
type probe struct {
	log  *[]string
	name string
}

func (p *probe) Eval(cycle uint64)   { *p.log = append(*p.log, p.name+"E") }
func (p *probe) Commit(cycle uint64) { *p.log = append(*p.log, p.name+"C") }

func TestTwoPhaseOrdering(t *testing.T) {
	var log []string
	e := New()
	a, b := &probe{&log, "a"}, &probe{&log, "b"}
	e.Add(a, b)
	e.AddLatch(a, b)
	e.Step()
	want := []string{"aE", "bE", "aC", "bC"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestCycleCount(t *testing.T) {
	e := New()
	if e.Cycle() != 0 {
		t.Fatalf("fresh engine cycle = %d", e.Cycle())
	}
	e.Run(10)
	if e.Cycle() != 10 {
		t.Fatalf("after Run(10), cycle = %d", e.Cycle())
	}
	e.Step()
	if e.Cycle() != 11 {
		t.Fatalf("after Step, cycle = %d", e.Cycle())
	}
}

// counter counts its evaluations. Its empty Commit lets it serve as a
// fakeKernel unit too.
type counter struct{ evals int }

func (c *counter) Eval(uint64)   { c.evals++ }
func (c *counter) Commit(uint64) {}

func TestRunUntil(t *testing.T) {
	e := New()
	c := &counter{}
	e.Add(c)
	ok := e.RunUntil(func() bool { return c.evals >= 5 }, 100)
	if !ok {
		t.Fatal("RunUntil should have succeeded")
	}
	if c.evals != 5 {
		t.Fatalf("evals = %d, want 5", c.evals)
	}
	ok = e.RunUntil(func() bool { return false }, 7)
	if ok {
		t.Fatal("RunUntil should have failed")
	}
	if c.evals != 12 {
		t.Fatalf("evals = %d, want 12 (5 + 7 budget)", c.evals)
	}
}

// TestRunUntilBoundary pins RunUntil's documented accounting: the
// predicate is checked before each step and once more after the budget
// is exhausted, so it runs max+1 times when never satisfied, and a
// condition that becomes true exactly on the last budgeted cycle still
// reports success.
func TestRunUntilBoundary(t *testing.T) {
	e := New()
	c := &counter{}
	e.Add(c)

	checks := 0
	ok := e.RunUntil(func() bool { checks++; return false }, 4)
	if ok {
		t.Fatal("unsatisfiable predicate should report false")
	}
	if checks != 5 {
		t.Fatalf("predicate checked %d times, want max+1 = 5", checks)
	}
	if c.evals != 4 {
		t.Fatalf("evals = %d, want the full budget of 4", c.evals)
	}

	// Success on the very last budgeted cycle: the final check observes
	// the state after the last step.
	ok = e.RunUntil(func() bool { return c.evals >= 7 }, 3)
	if !ok {
		t.Fatal("condition satisfied by the last budgeted step should report true")
	}
	if c.evals != 7 {
		t.Fatalf("evals = %d, want 7", c.evals)
	}
}

func TestRunUntilImmediatelyDone(t *testing.T) {
	e := New()
	c := &counter{}
	e.Add(c)
	if !e.RunUntil(func() bool { return true }, 100) {
		t.Fatal("immediately-done predicate should succeed")
	}
	if c.evals != 0 {
		t.Fatalf("no cycles should have run, got %d", c.evals)
	}
}

// cycleChecker verifies the cycle argument passed to hooks.
type cycleChecker struct {
	t    *testing.T
	next uint64
}

func (c *cycleChecker) Eval(cycle uint64) {
	if cycle != c.next {
		c.t.Errorf("Eval cycle = %d, want %d", cycle, c.next)
	}
}
func (c *cycleChecker) Commit(cycle uint64) {
	if cycle != c.next {
		c.t.Errorf("Commit cycle = %d, want %d", cycle, c.next)
	}
	c.next++
}

func TestCycleArgument(t *testing.T) {
	e := New()
	c := &cycleChecker{t: t}
	e.Add(c)
	e.AddLatch(c)
	e.Run(25)
	if c.next != 25 {
		t.Fatalf("Commit ran %d times in 25 cycles", c.next)
	}
}
