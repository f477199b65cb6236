package clock

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// unit is what a fakeKernel drives: an Eval for EvalUnits and a Commit
// for CommitUnits.
type unit interface {
	Component
	Latch
}

// fakeKernel adapts a slice of units to the Kernel interface and
// audits how the engine drives it: which unit ranges eval was handed in
// how many calls, and how CommitBatch ran. All tallies are atomic — the
// engine calls EvalUnits from several workers at once.
type fakeKernel struct {
	units   []unit
	evals   []atomic.Int32 // per unit, EvalUnits visits since reset
	commits []atomic.Int32 // per unit, CommitUnits visits since reset
	ranges  atomic.Int32   // EvalUnits calls since reset: one per partition per cycle
	batches atomic.Int32   // CommitBatch(0, 1) calls since reset
	bad     atomic.Int32   // CommitBatch calls with any other arguments
}

func newFakeKernel(units ...unit) *fakeKernel {
	return &fakeKernel{
		units:   units,
		evals:   make([]atomic.Int32, len(units)),
		commits: make([]atomic.Int32, len(units)),
	}
}

func (k *fakeKernel) Units() int { return len(k.units) }

func (k *fakeKernel) EvalUnits(lo, hi int, cycle uint64) {
	k.ranges.Add(1)
	for u := lo; u < hi; u++ {
		k.evals[u].Add(1)
		k.units[u].Eval(cycle)
	}
}

func (k *fakeKernel) CommitUnits(lo, hi int, cycle uint64) {
	for u := lo; u < hi; u++ {
		k.commits[u].Add(1)
		k.units[u].Commit(cycle)
	}
}

func (k *fakeKernel) CommitBatch(part, parts int, cycle uint64) {
	if part != 0 || parts != 1 {
		k.bad.Add(1)
		return
	}
	k.batches.Add(1)
}

// audit asserts that since the last reset every unit was evaluated and
// committed exactly steps times, eval ran as wantParts ranges a cycle and
// CommitBatch(0, 1) exactly once a cycle, then resets the tallies.
func (k *fakeKernel) audit(t *testing.T, label string, steps int32, wantParts int) {
	t.Helper()
	for u := range k.units {
		if e, c := k.evals[u].Swap(0), k.commits[u].Swap(0); e != steps || c != steps {
			t.Errorf("%s: unit %d evaluated %d and committed %d times in %d steps", label, u, e, c, steps)
		}
	}
	if got, want := k.ranges.Swap(0), steps*int32(wantParts); got != want {
		t.Errorf("%s: %d EvalUnits calls in %d steps, want %d (%d partitions)", label, got, steps, want, wantParts)
	}
	if k.bad.Swap(0) != 0 {
		t.Errorf("%s: CommitBatch called with arguments other than (0, 1)", label)
	}
	if got := k.batches.Swap(0); got != steps {
		t.Errorf("%s: CommitBatch(0, 1) ran %d times in %d steps", label, got, steps)
	}
}

// barrierProbe checks the two-phase contract under concurrency: every
// Eval of cycle c must complete before any Commit of cycle c starts, and
// every Commit of cycle c before any Eval of cycle c+1. All probes share
// the counters; violations are recorded atomically and asserted after
// the run. Epilogue probes are registered with both Add and AddLatch.
type barrierProbe struct {
	n          int64 // total probes registered
	evals      *atomic.Int64
	commits    *atomic.Int64
	violations *atomic.Int64
}

func (b *barrierProbe) Eval(cycle uint64) {
	if b.commits.Load() != int64(cycle)*b.n {
		b.violations.Add(1)
	}
	b.evals.Add(1)
}

func (b *barrierProbe) Commit(cycle uint64) {
	if b.evals.Load() != int64(cycle+1)*b.n {
		b.violations.Add(1)
	}
	b.commits.Add(1)
}

// TestParallelPhaseBarrier: no CommitUnits starts before every EvalUnits
// (and the epilogue's Evals) of the cycle has returned, and no latch
// commits before that either, at any worker count, with units, epilogue
// components and latches sharing one set of counters.
func TestParallelPhaseBarrier(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8} {
		e := New()
		var evals, commits, violations atomic.Int64
		const units, epilogue = 13, 3
		probes := make([]unit, 0, units+epilogue)
		for i := 0; i < units+epilogue; i++ {
			probes = append(probes, &barrierProbe{
				n: units + epilogue, evals: &evals, commits: &commits, violations: &violations,
			})
		}
		e.SetKernel(newFakeKernel(probes[:units]...))
		for _, p := range probes[units:] {
			e.Add(p)
			e.AddLatch(p)
		}
		e.SetWorkers(workers)
		e.Run(50)
		e.StopWorkers()
		if v := violations.Load(); v != 0 {
			t.Errorf("workers=%d: %d phase-barrier violations", workers, v)
		}
		if got := evals.Load(); got != 50*(units+epilogue) {
			t.Errorf("workers=%d: evals = %d", workers, got)
		}
	}
}

// TestPartitionsCoverUnitsOnce: whatever the worker count — including
// more workers than units, and a kernel with no units at all — every
// unit is evaluated and committed exactly once per cycle, eval runs as
// one range per partition, and CommitBatch(0, 1) runs exactly once per
// cycle. These kernels are far below minLaneUnits, so 0 runs inline.
func TestPartitionsCoverUnitsOnce(t *testing.T) {
	for _, units := range []int{0, 1, 3, 13} {
		for _, workers := range []int{0, 1, 2, 3, 8} {
			comps := make([]unit, units)
			for i := range comps {
				comps[i] = &counter{}
			}
			k := newFakeKernel(comps...)
			e := New()
			e.SetKernel(k)
			e.SetWorkers(workers)
			e.Run(5)
			e.StopWorkers()
			k.audit(t, fmt.Sprintf("units=%d workers=%d", units, workers), 5, max(workers, 1))
		}
	}
}

// orderProbe appends to an unsynchronized log. Safe only because every
// probe sharing a log runs in the serialized epilogue or among the
// latches — which is exactly what the test asserts, with the race
// detector watching.
type orderProbe struct {
	log  *[]string
	name string
}

func (p *orderProbe) Eval(cycle uint64)   { *p.log = append(*p.log, p.name+"E") }
func (p *orderProbe) Commit(cycle uint64) { *p.log = append(*p.log, p.name+"C") }

// batchLogKernel is a fakeKernel whose CommitBatch also logs "B". The log
// is unsynchronized: CommitBatch runs on the stepping goroutine, with the
// epilogue and the latches, at every worker count.
type batchLogKernel struct {
	*fakeKernel
	log *[]string
}

func (k *batchLogKernel) CommitBatch(part, parts int, cycle uint64) {
	*k.log = append(*k.log, "B")
	k.fakeKernel.CommitBatch(part, parts, cycle)
}

// TestSerializedEpilogueOrder: Add-ed components evaluate one at a time in
// registration order, CommitBatch runs once after every epilogue Eval, and
// AddLatch-ed latches commit after it in their own registration order,
// inline and with workers.
func TestSerializedEpilogueOrder(t *testing.T) {
	for _, workers := range []int{0, 4} {
		e := New()
		var log []string
		units := make([]unit, 6)
		for i := range units {
			units[i] = &counter{}
		}
		e.SetKernel(&batchLogKernel{fakeKernel: newFakeKernel(units...), log: &log})
		// The probes share a log with no locking: the epilogue and the
		// latches must serialize them. Latches are registered in the
		// opposite order, so their order is AddLatch's, not Add's.
		x, y := &orderProbe{&log, "x"}, &orderProbe{&log, "y"}
		e.Add(x, y)
		e.AddLatch(y, x)
		e.SetWorkers(workers)
		e.Run(10)
		e.StopWorkers()
		want := []string{"xE", "yE", "B", "yC", "xC"}
		if len(log) != 10*len(want) {
			t.Fatalf("workers=%d: log length = %d, want %d", workers, len(log), 10*len(want))
		}
		for i, entry := range log {
			if entry != want[i%len(want)] {
				t.Fatalf("workers=%d: log[%d] = %q, want %q", workers, i, entry, want[i%len(want)])
			}
		}
	}
}

// latch is a synthetic two-phase register network node: Eval computes a
// mix of the committed outputs of its inputs (previous cycle's values),
// Commit latches it. Identical to how routers read link registers.
type latch struct {
	inputs []*latch
	q, d   uint64
}

func (l *latch) Eval(cycle uint64) {
	acc := l.q*6364136223846793005 + 1442695040888963407
	for _, in := range l.inputs {
		acc ^= in.q + cycle
	}
	l.d = acc
}

func (l *latch) Commit(cycle uint64) { l.q = l.d }

// buildLatchRing wires n latches where node i reads nodes i-1 and i+1.
func buildLatchRing(n int) []*latch {
	ls := make([]*latch, n)
	for i := range ls {
		ls[i] = &latch{q: uint64(i) * 2654435761}
	}
	for i := range ls {
		ls[i].inputs = []*latch{ls[(i+n-1)%n], ls[(i+1)%n]}
	}
	return ls
}

// latchKernel wraps a latch ring as kernel units.
func latchKernel(ls []*latch) *fakeKernel {
	units := make([]unit, len(ls))
	for i, l := range ls {
		units[i] = l
	}
	return newFakeKernel(units...)
}

// TestParallelMatchesSerial is the engine-level differential test: the
// same register network stepped as plain Add-ed components and
// AddLatch-ed latches (no kernel) and as kernel units at several worker
// counts must produce bit-identical state.
func TestParallelMatchesSerial(t *testing.T) {
	const n, cycles = 24, 200
	state := func(ls []*latch) []uint64 {
		out := make([]uint64, n)
		for i, l := range ls {
			out[i] = l.q
		}
		return out
	}
	ref := New()
	rls := buildLatchRing(n)
	for _, l := range rls {
		ref.Add(l)
		ref.AddLatch(l)
	}
	ref.Run(cycles)
	want := state(rls)
	for _, workers := range []int{0, 1, 2, 4, 8} {
		e := New()
		ls := buildLatchRing(n)
		e.SetKernel(latchKernel(ls))
		e.SetWorkers(workers)
		e.Run(cycles)
		e.StopWorkers()
		for i, got := range state(ls) {
			if got != want[i] {
				t.Fatalf("workers=%d: latch %d state %#x, want %#x", workers, i, got, want[i])
			}
		}
	}
}

// TestSetWorkersMidRun switches worker counts mid-simulation; the final
// state must match an uninterrupted kernel-less run, and every segment
// must partition the units for its own worker count.
func TestSetWorkersMidRun(t *testing.T) {
	const n = 16
	serial := New()
	sls := buildLatchRing(n)
	for _, l := range sls {
		serial.Add(l)
		serial.AddLatch(l)
	}
	serial.Run(90)

	e := New()
	ls := buildLatchRing(n)
	k := latchKernel(ls)
	e.SetKernel(k)
	for _, seg := range []struct {
		workers int
		cycles  uint64
	}{{0, 30}, {4, 30}, {1, 15}, {2, 15}} {
		e.SetWorkers(seg.workers)
		e.Run(seg.cycles)
		k.audit(t, "mid-run", int32(seg.cycles), max(seg.workers, 1))
	}
	e.StopWorkers()

	if e.Cycle() != serial.Cycle() {
		t.Fatalf("cycle = %d, want %d", e.Cycle(), serial.Cycle())
	}
	for i := range ls {
		if ls[i].q != sls[i].q {
			t.Fatalf("latch %d state %#x, want %#x", i, ls[i].q, sls[i].q)
		}
	}
}

// TestAddAfterParallelStepRebuildsPool: registering an epilogue
// component between parallel steps takes effect on the next Step while
// the units keep running.
func TestAddAfterParallelStepRebuildsPool(t *testing.T) {
	e := New()
	unit, c1 := &counter{}, &counter{}
	e.SetKernel(newFakeKernel(unit))
	e.Add(c1)
	e.SetWorkers(2)
	e.Run(5)
	c2 := &counter{}
	e.Add(c2)
	e.Run(5)
	e.StopWorkers()
	if unit.evals != 10 || c1.evals != 10 || c2.evals != 5 {
		t.Fatalf("evals = %d, %d, %d; want 10, 10, 5", unit.evals, c1.evals, c2.evals)
	}
}

// TestStopWorkersIdempotent: StopWorkers is safe with no pool, twice in
// a row, and between steps, and it really ends the worker goroutines.
// The coordinator runs lane 0 itself, so workers lanes cost workers-1
// goroutines and a single worker costs none.
func TestStopWorkersIdempotent(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := New()
	e.SetKernel(newFakeKernel(&counter{}, &counter{}, &counter{}))
	e.StopWorkers() // no pool yet
	e.SetWorkers(1)
	e.Run(2)
	if got := runtime.NumGoroutine(); got > baseline {
		t.Errorf("%d goroutines at workers=1, want the baseline of %d: the coordinator is the only lane", got, baseline)
	}
	e.SetWorkers(3)
	e.Run(2)
	running := 3 // lanes are capped at GOMAXPROCS
	if max := runtime.GOMAXPROCS(0); running > max {
		running = max
	}
	running-- // lane 0 is the stepping goroutine
	if got := runtime.NumGoroutine(); got < baseline+running {
		t.Errorf("%d goroutines between parallel steps, want at least %d over the baseline of %d", got, running, baseline)
	}
	e.StopWorkers()
	e.StopWorkers() // second stop is a no-op
	e.Run(2)        // pool restarts lazily
	e.StopWorkers()
	awaitGoroutines(t, "", baseline)
}

// awaitGoroutines waits for the goroutine count to fall back to baseline.
// StopWorkers waits for every worker's deferred Done, which runs a few
// instructions before the goroutine is gone from the count: yield until
// it is, with a bound far beyond what that takes.
func awaitGoroutines(t *testing.T, label string, baseline int) {
	t.Helper()
	for yields := 0; runtime.NumGoroutine() > baseline; yields++ {
		if yields == 1_000_000 {
			t.Fatalf("%s%d goroutines after StopWorkers, baseline %d", label, runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}

func TestWorkersAccessor(t *testing.T) {
	e := New()
	if e.Workers() != 0 || e.Partitions() != 1 {
		t.Fatalf("fresh engine workers = %d, partitions = %d; want 0 and 1", e.Workers(), e.Partitions())
	}
	e.SetWorkers(6)
	if e.Workers() != 6 {
		t.Fatalf("workers = %d, want 6", e.Workers())
	}
	e.SetWorkers(-3)
	if e.Workers() != 0 {
		t.Fatalf("negative worker count should clamp to 0, got %d", e.Workers())
	}
}

// sizedKernel is a kernel of n units that do nothing but count the ranges
// they are evaluated in: enough to see how the engine partitions a large
// plan without building one.
type sizedKernel struct {
	n      int
	ranges atomic.Int32
}

func (k *sizedKernel) Units() int                                { return k.n }
func (k *sizedKernel) EvalUnits(lo, hi int, cycle uint64)        { k.ranges.Add(1) }
func (k *sizedKernel) CommitUnits(lo, hi int, cycle uint64)      {}
func (k *sizedKernel) CommitBatch(part, parts int, cycle uint64) {}

// splitKernel is a sizedKernel that opts into the small-kernel split, as
// kernel.Compiled does.
type splitKernel struct{ *sizedKernel }

func (splitKernel) SplitSmall() {}

// TestAutoPartitions: SetWorkers(0) evaluates a kernel of at least
// 2*minLaneUnits units, or a smallSplit one of at least minSplitUnits, on
// one lane per minLaneUnits units, but no fewer than two and no more than
// GOMAXPROCS, as laneRanges ranges a lane; a smaller kernel, or any kernel
// on one processor, runs inline. SetWorkers(n >= 1) is exactly n ranges on
// min(n, GOMAXPROCS) lanes whatever the kernel's size. Partitions reports
// the count before the first Step and after it, and a pool once built
// keeps its layout when GOMAXPROCS changes.
func TestAutoPartitions(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		procs, units, workers int
		small                 bool // the kernel implements smallSplit
		parts, lanes          int
	}{
		{4, 0, 0, true, 1, 1},
		{4, minSplitUnits - 1, 0, true, 1, 1},
		{4, minSplitUnits, 0, true, 2 * laneRanges, 2},
		{2, minSplitUnits, 0, true, 2 * laneRanges, 2},
		{1, minSplitUnits, 0, true, 1, 1}, // one processor: inline
		{4, minSplitUnits, 0, false, 1, 1},
		{4, 2*minLaneUnits - 1, 0, false, 1, 1},
		{4, 2 * minLaneUnits, 0, false, 2 * laneRanges, 2},
		{4, 3*minLaneUnits - 1, 0, true, 2 * laneRanges, 2},
		{4, 3 * minLaneUnits, 0, false, 3 * laneRanges, 3},
		{4, 100 * minLaneUnits, 0, true, 4 * laneRanges, 4},
		{1, 100 * minLaneUnits, 0, false, 1, 1}, // one processor: auto is inline
		{4, 100 * minLaneUnits, 1, true, 1, 1},  // 1 is the explicit inline run
		{1, 3, 2, false, 2, 1},
		{4, 3, 6, false, 6, 4},
	} {
		runtime.GOMAXPROCS(tc.procs)
		label := fmt.Sprintf("GOMAXPROCS=%d units=%d workers=%d small=%v", tc.procs, tc.units, tc.workers, tc.small)
		baseline := runtime.NumGoroutine()
		k := &sizedKernel{n: tc.units}
		e := New()
		if tc.small {
			e.SetKernel(splitKernel{k})
		} else {
			e.SetKernel(k)
		}
		e.SetWorkers(tc.workers)
		if got := e.Partitions(); got != tc.parts {
			t.Errorf("%s: Partitions() = %d before stepping, want %d", label, got, tc.parts)
		}
		e.Run(2)
		runtime.GOMAXPROCS(tc.procs + 1)
		e.Run(1)
		if got := e.Partitions(); got != tc.parts {
			t.Errorf("%s: Partitions() = %d after stepping, want %d", label, got, tc.parts)
		}
		if got := k.ranges.Load(); got != int32(3*tc.parts) {
			t.Errorf("%s: %d EvalUnits calls in 3 steps, want %d", label, got, 3*tc.parts)
		}
		if got := runtime.NumGoroutine() - baseline; got != tc.lanes-1 {
			t.Errorf("%s: %d worker goroutines, want %d lanes besides the stepping goroutine", label, got, tc.lanes-1)
		}
		e.StopWorkers()
		awaitGoroutines(t, label+": ", baseline)
	}
	if got := New().Partitions(); got != 1 {
		t.Errorf("kernel-less engine: Partitions() = %d, want 1", got)
	}
}

// panicKernel is a fakeKernel whose eval, once armed, panics in the
// partitions that start at a unit listed in fail. The partition starting
// at unit wait (none when wait is -1) does not begin until the partition
// starting at unit 0 has: with two partitions and two lanes, lane 0 claims
// partition 1 first and holds it, so partition 0 is a worker's.
type panicKernel struct {
	*fakeKernel
	fail    []int
	wait    int
	armed   atomic.Bool
	claimed chan struct{} // closed when partition 0 begins an armed eval
}

func (k *panicKernel) EvalUnits(lo, hi int, cycle uint64) {
	if k.armed.Load() {
		switch lo {
		case 0:
			close(k.claimed)
		case k.wait:
			<-k.claimed
		}
		if slices.Contains(k.fail, lo) {
			panic(fmt.Sprintf("unit %d failed at cycle %d", lo, cycle))
		}
	}
	k.fakeKernel.EvalUnits(lo, hi, cycle)
}

// stepPanic runs one armed Step of an engine over k and returns what it
// panicked with.
func stepPanic(e *Engine, k *panicKernel) (v any) {
	k.claimed = make(chan struct{})
	k.armed.Store(true)
	defer func() {
		k.armed.Store(false)
		v = recover()
	}()
	e.Step()
	return nil
}

// TestWorkerPanicReachesStep: a panic in partition 0, which a worker
// goroutine runs at SetWorkers(2) on two processors while lane 0 holds
// partition 1, surfaces on the goroutine that called Step, with the unit's
// value, rather than ending the process. The eval still counts every
// partition finished, so the engine keeps stepping afterwards and
// StopWorkers leaves no goroutine behind.
func TestWorkerPanicReachesStep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	baseline := runtime.NumGoroutine()
	k := &panicKernel{fakeKernel: newFakeKernel(&counter{}, &counter{}, &counter{}, &counter{}), fail: []int{0}, wait: 2}
	e := New()
	e.SetKernel(k)
	e.SetWorkers(2)
	e.Run(3)
	if got := runtime.NumGoroutine(); got != baseline+1 {
		t.Fatalf("%d goroutines while stepping, want the baseline %d plus one worker", got, baseline)
	}
	if got, want := stepPanic(e, k), "unit 0 failed at cycle 3"; got != want {
		t.Fatalf("Step panicked with %v, want %q", got, want)
	}
	e.Run(2) // the pool survived the panic
	e.StopWorkers()
	awaitGoroutines(t, "", baseline)
}

// TestLowestPartitionPanicWins: when two partitions panic in one cycle,
// Step reports the lower one's value whichever lanes ran them, and the
// lanes that recovered kept claiming, so every other partition was still
// evaluated that cycle.
func TestLowestPartitionPanicWins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	baseline := runtime.NumGoroutine()
	units := make([]unit, 6)
	for i := range units {
		units[i] = &counter{}
	}
	k := &panicKernel{fakeKernel: newFakeKernel(units...), fail: []int{1, 4}, wait: -1}
	e := New()
	e.SetKernel(k)
	e.SetWorkers(len(units)) // one unit a partition
	for step := 0; step < 20; step++ {
		// A Step that panics does not complete its cycle.
		if got, want := stepPanic(e, k), "unit 1 failed at cycle 0"; got != want {
			t.Fatalf("Step panicked with %v, want %q", got, want)
		}
		for u := range units {
			want := int32(1)
			if slices.Contains(k.fail, u) {
				want = 0
			}
			if got := k.evals[u].Swap(0); got != want {
				t.Fatalf("step %d: unit %d evaluated %d times, want %d", step, u, got, want)
			}
		}
	}
	e.StopWorkers()
	awaitGoroutines(t, "", baseline)
}

// TestClaimTakesEachPartitionOnce: however many lanes claim at once, every
// partition of an eval is claimed exactly once, and lane 0, claiming from
// the back, takes parts-1, parts-2, … in turn while the workers take from
// the front. Each round is a new epoch, and the workers claim under the
// epoch the round published.
func TestClaimTakesEachPartitionOnce(t *testing.T) {
	const parts, workers, rounds = 64, 7, 200
	baseline := runtime.NumGoroutine()
	p := &pool{bounds: make([]int, parts+1)}
	for round := 0; round < rounds; round++ {
		p.publish(parts)
		epoch := p.epoch
		var taken [parts]atomic.Int32
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for part := p.claim(epoch, false); part >= 0; part = p.claim(epoch, false) {
					taken[part].Add(1)
				}
			}()
		}
		next := parts - 1
		for part := p.claim(epoch, true); part >= 0; part = p.claim(epoch, true) {
			if part != next {
				t.Fatalf("round %d: lane 0 claimed partition %d, want %d", round, part, next)
			}
			next--
			taken[part].Add(1)
		}
		wg.Wait()
		for part := range taken {
			if n := taken[part].Load(); n != 1 {
				t.Fatalf("round %d: partition %d claimed %d times, want once", round, part, n)
			}
		}
	}
	awaitGoroutines(t, "", baseline)
}

// TestStaleEpochClaimFails: a lane that saw an earlier eval's span cannot
// claim from the next one under the old epoch, from either end, and its
// attempt leaves the span as it was; under the current epoch the claims
// go through.
func TestStaleEpochClaimFails(t *testing.T) {
	p := &pool{bounds: make([]int, 5)}
	p.publish(4)
	stale := p.epoch
	p.publish(4)
	before := p.span.Load()
	for _, back := range []bool{false, true} {
		if part := p.claim(stale, back); part != -1 {
			t.Fatalf("claim under stale epoch %d (back=%v) took partition %d", stale, back, part)
		}
	}
	if after := p.span.Load(); after != before {
		t.Fatalf("stale claims changed the span from %#x to %#x", before, after)
	}
	if a, b := p.claim(p.epoch, false), p.claim(p.epoch, true); a != 0 || b != 3 {
		t.Fatalf("claims under the current epoch took %d and %d, want 0 and 3", a, b)
	}
}

// unstartedPool is a pool over k with the given partition bounds and
// lanes-1 worker lanes behind which no goroutine runs, as if none ever got
// a processor.
func unstartedPool(k Kernel, bounds []int, lanes int) *pool {
	p := &pool{k: k, bounds: bounds, failed: make([]any, len(bounds)-1), lanes: make([]lane, lanes-1)}
	for i := range p.lanes {
		p.lanes[i].wake = make(chan struct{}, 1)
	}
	return p
}

// TestEvalWithUnwokenLanes: an eval completes when no worker lane runs at
// all. The pool's lanes are parked, as idle lanes are, but no goroutine
// stands behind them, so none wakes in time: the coordinator claims every
// partition itself, evaluates each unit once, and leaves each lane the one
// wake token it owes.
func TestEvalWithUnwokenLanes(t *testing.T) {
	units := make([]unit, 7)
	for i := range units {
		units[i] = &counter{}
	}
	k := newFakeKernel(units...)
	p := unstartedPool(k, []int{0, 2, 4, 7}, 3)
	for cycle := uint64(0); cycle < 3; cycle++ {
		for i := range p.lanes {
			p.lanes[i].parked.Store(true)
		}
		p.eval(cycle)
		for i := range p.lanes {
			l := &p.lanes[i]
			if l.parked.Load() || len(l.wake) != 1 {
				t.Fatalf("cycle %d: lane %d parked=%v with %d wake tokens, want cleared with 1", cycle, i+1, l.parked.Load(), len(l.wake))
			}
			<-l.wake
		}
	}
	for u := range units {
		if got := k.evals[u].Load(); got != 3 {
			t.Errorf("unit %d evaluated %d times in 3 evals", u, got)
		}
	}
	if got := k.ranges.Load(); got != 9 {
		t.Errorf("%d EvalUnits calls in 3 evals of 3 partitions", got)
	}
}

// TestStopWorkersFromSpinAndPark: StopWorkers ends every worker lane
// whether it is still spinning after an eval or has parked, and leaves no
// goroutine behind either way.
func TestStopWorkersFromSpinAndPark(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, park := range []bool{false, true} {
		baseline := runtime.NumGoroutine()
		e := New()
		e.SetKernel(newFakeKernel(&counter{}, &counter{}, &counter{}, &counter{}))
		e.SetWorkers(4)
		e.Run(3)
		if park {
			lanes := e.pool.lanes
			for yields := 0; ; yields++ {
				parked := 0
				for i := range lanes {
					if lanes[i].parked.Load() {
						parked++
					}
				}
				if parked == len(lanes) {
					break
				}
				if yields == 1_000_000 {
					t.Fatalf("%d of %d worker lanes parked after idling", parked, len(lanes))
				}
				runtime.Gosched()
			}
		}
		e.StopWorkers()
		awaitGoroutines(t, fmt.Sprintf("park=%v: ", park), baseline)
	}
}
