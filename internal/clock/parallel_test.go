package clock

import (
	"fmt"
	"runtime"
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
// audits how the engine drives it: which unit ranges each phase was
// handed and which CommitBatch partitions ran. All tallies are atomic —
// the engine calls in from several workers at once.
type fakeKernel struct {
	units   []unit
	evals   []atomic.Int32 // per unit, EvalUnits visits since reset
	commits []atomic.Int32 // per unit, CommitUnits visits since reset
	batches []atomic.Int32 // per part, CommitBatch calls since reset
	parts   atomic.Int32   // parts argument of the last CommitBatch
	bad     atomic.Int32   // CommitBatch calls with part outside [0, parts) or cap
}

// maxParts bounds the CommitBatch tally; tests stay at or below it.
const maxParts = 16

func newFakeKernel(units ...unit) *fakeKernel {
	return &fakeKernel{
		units:   units,
		evals:   make([]atomic.Int32, len(units)),
		commits: make([]atomic.Int32, len(units)),
		batches: make([]atomic.Int32, maxParts),
	}
}

func (k *fakeKernel) Units() int { return len(k.units) }

func (k *fakeKernel) EvalUnits(lo, hi int, cycle uint64) {
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
	if part < 0 || part >= parts || parts > maxParts {
		k.bad.Add(1)
		return
	}
	k.parts.Store(int32(parts))
	k.batches[part].Add(1)
}

// audit asserts that since the last reset every unit was evaluated and
// committed exactly steps times and CommitBatch ran exactly steps times
// for each of wantParts partitions, then resets the tallies.
func (k *fakeKernel) audit(t *testing.T, label string, steps int32, wantParts int) {
	t.Helper()
	for u := range k.units {
		if e, c := k.evals[u].Swap(0), k.commits[u].Swap(0); e != steps || c != steps {
			t.Errorf("%s: unit %d evaluated %d and committed %d times in %d steps", label, u, e, c, steps)
		}
	}
	if k.bad.Swap(0) != 0 {
		t.Errorf("%s: CommitBatch called with part outside [0, parts)", label)
	}
	if got := int(k.parts.Load()); got != wantParts {
		t.Errorf("%s: CommitBatch parts = %d, want %d", label, got, wantParts)
	}
	for p := range k.batches {
		want := int32(0)
		if p < wantParts {
			want = steps
		}
		if got := k.batches[p].Swap(0); got != want {
			t.Errorf("%s: CommitBatch part %d ran %d times, want %d", label, p, got, want)
		}
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
// unit is evaluated and committed exactly once per cycle and CommitBatch
// runs exactly once per partition.
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
			parts := workers
			if parts == 0 {
				parts = 1
			}
			k.audit(t, fmt.Sprintf("units=%d workers=%d", units, workers), 5, parts)
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

// batchLogKernel is a fakeKernel whose CommitBatch also logs "B", under a
// lock, since the partitions run on several workers at once.
type batchLogKernel struct {
	*fakeKernel
	mu  sync.Mutex
	log *[]string
}

func (k *batchLogKernel) CommitBatch(part, parts int, cycle uint64) {
	k.mu.Lock()
	*k.log = append(*k.log, "B")
	k.mu.Unlock()
	k.fakeKernel.CommitBatch(part, parts, cycle)
}

// TestSerializedEpilogueOrder: Add-ed components evaluate one at a time in
// registration order, and AddLatch-ed latches commit after every epilogue
// Eval and after every CommitBatch partition, in their own registration
// order, inline and with workers.
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
		want := []string{"xE", "yE"}
		for p := 0; p < max(workers, 1); p++ {
			want = append(want, "B")
		}
		want = append(want, "yC", "xC")
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
	}{{0, 30}, {4, 30}, {0, 15}, {2, 15}} {
		e.SetWorkers(seg.workers)
		e.Run(seg.cycles)
		parts := seg.workers
		if parts == 0 {
			parts = 1
		}
		k.audit(t, "mid-run", int32(seg.cycles), parts)
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
	// stop() waits for every worker's deferred Done, which runs a few
	// instructions before the goroutine is gone from the count: yield
	// until it is, with a bound far beyond what that takes.
	for yields := 0; runtime.NumGoroutine() > baseline; yields++ {
		if yields == 1_000_000 {
			t.Fatalf("%d goroutines after StopWorkers, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}

func TestWorkersAccessor(t *testing.T) {
	e := New()
	if e.Workers() != 0 {
		t.Fatalf("fresh engine workers = %d", e.Workers())
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

// panicKernel is a fakeKernel whose eval panics in every partition but the
// first once armed: the unit work of a worker lane failing.
type panicKernel struct {
	*fakeKernel
	armed atomic.Bool
}

func (k *panicKernel) EvalUnits(lo, hi int, cycle uint64) {
	if lo > 0 && k.armed.Load() {
		panic(fmt.Sprintf("unit %d failed at cycle %d", lo, cycle))
	}
	k.fakeKernel.EvalUnits(lo, hi, cycle)
}

// TestWorkerPanicReachesStep: a panic in partition 1, which a worker
// goroutine runs at SetWorkers(2) on two processors, surfaces on the
// goroutine that called Step, with the unit's value, rather than ending
// the process. The barrier still completes, so the engine keeps stepping
// afterwards and StopWorkers leaves no goroutine behind.
func TestWorkerPanicReachesStep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	baseline := runtime.NumGoroutine()
	k := &panicKernel{fakeKernel: newFakeKernel(&counter{}, &counter{}, &counter{}, &counter{})}
	e := New()
	e.SetKernel(k)
	e.SetWorkers(2)
	e.Run(3)
	if got := runtime.NumGoroutine(); got != baseline+1 {
		t.Fatalf("%d goroutines while stepping, want the baseline %d plus one worker", got, baseline)
	}
	k.armed.Store(true)
	got := func() (v any) {
		defer func() { v = recover() }()
		e.Step()
		return nil
	}()
	if want := "unit 2 failed at cycle 3"; got != want {
		t.Fatalf("Step panicked with %v, want %q", got, want)
	}
	k.armed.Store(false)
	e.Run(2) // the pool survived the panic
	e.StopWorkers()
	for yields := 0; runtime.NumGoroutine() > baseline; yields++ {
		if yields == 1_000_000 {
			t.Fatalf("%d goroutines after StopWorkers, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}
