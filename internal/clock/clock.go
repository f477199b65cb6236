// Package clock implements the synchronous simulation kernel underlying the
// METRO network model.
//
// METRO networks are pipelined circuit-switched systems: every routing
// component runs synchronously from a central clock, and data takes a small,
// constant number of clock cycles to pass through each component (paper,
// Section 3). The only state that changes on the clock edge is on the wires:
// the paper models each wire as a number of pipeline registers (Section 5.1),
// while a router's own pipeline advances inside its cycle. The kernel models
// this directly. On every cycle each component is first asked to Eval — read
// the values its input wires held at the end of the previous cycle, update
// private state, and stage new values on its output wires — and then every
// wire latches, moving the staged values one register toward the reader, so
// they become visible on a later cycle.
//
// Because components communicate only through link pipelines (package link),
// whose outputs change only when the wires latch, the order in which
// components Eval within a cycle is irrelevant: the model is a faithful
// register-transfer abstraction of a synchronous circuit.
//
// # Execution
//
// An engine drives three populations. The kernel (SetKernel) is the
// network plane: a fixed set of evaluation units addressed by dense
// index, plus batched latch work for the link pipelines. Components
// registered with Add are the serialized epilogue: traffic drivers,
// fault injectors, collectors — anything whose Eval reaches into other
// components' state. Latches registered with AddLatch are wires outside
// any kernel, such as the hand-wired links of unit tests. Every cycle
// runs one schedule:
//
//	unit eval -> epilogue eval -> CommitUnits + CommitBatch -> latch commit
//
// The register-transfer abstraction is also a license to evaluate units
// concurrently. SetWorkers(n) with n >= 1 splits the unit index space
// into n contiguous ranges and fans each unit phase over a pool of
// worker goroutines, with a barrier before whatever follows that phase.
// Because a well-behaved unit's Eval touches only its own state plus
// the staged slots of its attached link ends — distinct memory per
// writer — and CommitBatch's partitions shift disjoint registers, the
// phase barrier is the only synchronization needed, and the partitioned
// schedule is bit-for-bit equivalent to the inline one (workers = 0).
// The epilogue and the latches always run one at a time, in
// registration order, on the stepping goroutine.
//
// An engine with no kernel simply evaluates its Add-ed components and
// latches its AddLatch-ed wires: that is how unit tests drive a handful
// of hand-wired routers.
package clock

import (
	"runtime"
	"sync"
	"time"
)

// Component is a clocked element of the simulated system.
type Component interface {
	// Eval reads inputs as of the end of the previous cycle, updates
	// internal state, and stages outputs on its wires. The wires expose
	// them to other components only when they latch.
	Eval(cycle uint64)
}

// Latch is clock-edge state: a wire whose staged values become visible
// to their readers when it commits.
type Latch interface {
	// Commit latches the values staged this cycle, after every Eval.
	Commit(cycle uint64)
}

// Kernel is the network plane of an engine: a fixed population of
// evaluation units plus batched commit work. A kernel exposes its units
// by dense index so the engine can drive them with plain loops — in
// index order on the stepping goroutine, or partitioned into contiguous
// index ranges across workers.
//
// Units must obey the isolation contract: a unit's EvalUnit touches only
// unit-local state plus the staged registers of its attached links, and
// CommitUnit latches only unit-local registers, so any index partition
// yields bit-for-bit the same schedule. State owned by no single unit —
// batched link shuttling through a link.Arena — is advanced by
// CommitBatch(part, parts), which the engine calls exactly once per
// partition during the commit phase; implementations must touch
// disjoint memory for disjoint parts. The kernels of this module keep
// all clock-edge state on their wires, so their CommitUnits are empty.
//
// Components registered with Add run after every unit's Eval, and
// latches registered with AddLatch after CommitBatch, each in
// registration order.
type Kernel interface {
	// Units returns the number of evaluation units. Fixed for the
	// lifetime of the kernel.
	Units() int
	// EvalUnits runs the eval phase of units [lo, hi) in index order.
	// Range-based so the inner loop compiles into the kernel — one
	// interface call per partition per phase, not one per unit.
	EvalUnits(lo, hi int, cycle uint64)
	// CommitUnits runs the commit phase of units [lo, hi) in index order.
	CommitUnits(lo, hi int, cycle uint64)
	// CommitBatch advances shared bulk state (link pipelines) for one
	// partition of parts total. Inline execution calls CommitBatch(0, 1).
	CommitBatch(part, parts int, cycle uint64)
}

// Engine drives a kernel and a set of serialized components from a
// single central clock; see the package comment for the schedule.
type Engine struct {
	comps   []Component // the serialized epilogue, registration order
	latches []Latch     // wires outside the kernel, registration order
	cycle   uint64
	workers int
	kernel  Kernel
	pool    *pool // built lazily on the first Step after a change

	// Operational gauges (see metrics.go). met == nil — the default —
	// costs one branch per Step.
	met     *EngineMetrics
	metN    uint64    // cycles completed since SetMetrics
	metLast time.Time // previous sampling-grid instant
}

// New returns an empty engine at cycle 0 with no kernel and no workers.
func New() *Engine { return &Engine{} }

// Add registers components with the engine's clock. They form the
// serialized epilogue: each cycle evaluates them one at a time, in
// registration order, after every kernel unit — the safe home for
// components whose Eval touches other components' state, such as
// traffic drivers and fault injectors.
func (e *Engine) Add(cs ...Component) { e.comps = append(e.comps, cs...) }

// AddLatch registers wires that no kernel shuttles, such as links from
// link.New. They commit at the end of every cycle, one at a time, in
// registration order, after the kernel's CommitBatch.
func (e *Engine) AddLatch(ls ...Latch) { e.latches = append(e.latches, ls...) }

// SetKernel installs k as the engine's network plane, replacing any
// previous kernel (a decorator can wrap and later restore the original).
// Components registered with Add keep running as the epilogue.
func (e *Engine) SetKernel(k Kernel) {
	e.invalidate()
	e.kernel = k
}

// Kernel returns the installed kernel, or nil.
func (e *Engine) Kernel() Kernel { return e.kernel }

// SetWorkers selects how the kernel's units execute: 0 (or negative)
// runs them inline on the stepping goroutine; n >= 1 splits them into n
// contiguous index ranges executed by min(n, GOMAXPROCS) persistent
// worker goroutines. The schedule is bit-for-bit equivalent for every
// n, so n is purely a throughput knob. Changing the worker count
// mid-run is allowed; the pool is rebuilt lazily on the next Step.
func (e *Engine) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	e.invalidate()
	e.workers = n
}

// Workers returns the configured worker count (0 = inline).
func (e *Engine) Workers() int { return e.workers }

// StopWorkers releases the worker goroutines, if any are running. The
// engine remains usable: the pool restarts lazily on the next Step.
// Call it when discarding an engine with workers > 0, so sweeps over
// many networks do not accumulate idle goroutines.
func (e *Engine) StopWorkers() { e.invalidate() }

// invalidate tears down the worker pool; kernel and worker-count
// changes rebuild it lazily on the next Step.
func (e *Engine) invalidate() {
	if e.pool != nil {
		e.pool.stop()
		e.pool = nil
	}
}

// Cycle returns the number of completed clock cycles.
func (e *Engine) Cycle() uint64 { return e.cycle }

// Step advances the system by one clock cycle.
func (e *Engine) Step() {
	c := e.cycle
	e.units(phaseEval, c)
	for _, comp := range e.comps {
		comp.Eval(c)
	}
	e.units(phaseCommit, c)
	for _, l := range e.latches {
		l.Commit(c)
	}
	e.cycle++
	if e.met != nil {
		e.metTick()
	}
}

// units runs one phase of every kernel unit and returns once all of
// them have finished it. A kernel-less engine has no units.
func (e *Engine) units(kind phaseKind, cycle uint64) {
	if e.kernel == nil {
		return
	}
	if e.pool == nil {
		e.pool = newPool(e.workers, e.kernel)
	}
	e.pool.phase(kind, cycle)
}

// Run advances the system by n clock cycles.
func (e *Engine) Run(n uint64) {
	for i := uint64(0); i < n; i++ {
		e.Step()
	}
}

// RunUntil steps the clock until done reports true or max cycles have
// elapsed (counted from the current cycle), whichever comes first. It
// returns true if done reported true.
//
// The predicate is checked before each step and once more after the
// budget is exhausted: done is evaluated max+1 times in the worst case,
// and when it returns true before the first check, zero cycles run. The
// consequence that looks like an off-by-one is deliberate: a run that
// goes quiet exactly on its last budgeted cycle still reports success,
// because the final check observes the state after that step. See
// TestRunUntilBoundary for the exact accounting.
func (e *Engine) RunUntil(done func() bool, max uint64) bool {
	for i := uint64(0); i < max; i++ {
		if done() {
			return true
		}
		e.Step()
	}
	return done()
}

// phaseKind selects which half of the two-phase cycle a partition executes.
type phaseKind uint8

const (
	phaseEval phaseKind = iota
	phaseCommit
)

// poolCmd is one phase broadcast to a worker.
type poolCmd struct {
	kind  phaseKind
	cycle uint64
}

// pool drives a kernel's units. The unit population is split into parts
// contiguous index ranges — the configured worker count, or one range
// when that is 0 — so the partition is a pure function of the kernel,
// not of GOMAXPROCS. The partitions are dealt round-robin onto
// g = min(workers, GOMAXPROCS) lanes, lane i executing partitions i, i+g,
// i+2g, … in order. The coordinator (the stepping goroutine) runs lane 0
// itself and the pool owns one persistent goroutine for each of the other
// g-1 lanes: the coordinator would only sleep while they ran, and on
// networks whose phase is a few microseconds the extra handoff and wake
// cost more than the lane. With workers <= 1, or a single processor,
// there is no goroutine at all. The barrier WaitGroup plus the command
// channels provide the happens-before edges: every write a worker makes
// during a phase is visible to the coordinator after phase() returns,
// and to every worker on the next phase broadcast.
//
// A unit that panics must not take the process down from a goroutine no
// caller can recover on, nor leave the barrier one Done short. While worker
// lanes run, every lane (the coordinator's too) recovers a panic into its
// slot of failed and still reaches the barrier; the coordinator then
// re-panics on the stepping goroutine with the value of the lowest lane
// that failed, and the workers stay ready for the next phase or stop.
type pool struct {
	k       Kernel
	bounds  []int          // partition p covers units [bounds[p], bounds[p+1])
	cmd     []chan poolCmd // lane i+1's command channel: g-1 of them, none when g == 1
	failed  []any          // per lane, the panic recovered this phase; nil when g == 1
	barrier sync.WaitGroup
	done    sync.WaitGroup
}

func newPool(workers int, k Kernel) *pool {
	parts := workers
	if parts == 0 {
		parts = 1
	}
	p := &pool{k: k, bounds: make([]int, parts+1)}
	n := k.Units()
	for i := range p.bounds {
		p.bounds[i] = i * n / parts
	}
	lanes := parts
	if max := runtime.GOMAXPROCS(0); lanes > max {
		lanes = max
	}
	p.cmd = make([]chan poolCmd, lanes-1)
	if lanes > 1 {
		p.failed = make([]any, lanes)
	}
	p.done.Add(len(p.cmd))
	for i := range p.cmd {
		p.cmd[i] = make(chan poolCmd)
		go p.worker(i + 1)
	}
	return p
}

// worker is the goroutine behind lane i >= 1.
func (p *pool) worker(lane int) {
	defer p.done.Done()
	for cmd := range p.cmd[lane-1] {
		p.runLaneRecovering(lane, cmd)
		p.barrier.Done()
	}
}

// runLaneRecovering is runLane with a panic kept in the lane's failed slot
// for the coordinator to re-raise.
func (p *pool) runLaneRecovering(lane int, cmd poolCmd) {
	defer func() {
		if v := recover(); v != nil {
			p.failed[lane] = v
		}
	}()
	p.runLane(lane, cmd)
}

// runLane executes one phase of every partition dealt to a lane.
func (p *pool) runLane(lane int, cmd poolCmd) {
	for part, lanes := lane, len(p.cmd)+1; part < len(p.bounds)-1; part += lanes {
		p.run(part, cmd)
	}
}

// run executes one phase of one partition: its unit range and, on
// commit, its share of the batched link shuttle.
func (p *pool) run(part int, cmd poolCmd) {
	lo, hi := p.bounds[part], p.bounds[part+1]
	switch cmd.kind {
	case phaseEval:
		p.k.EvalUnits(lo, hi, cmd.cycle)
	case phaseCommit:
		p.k.CommitUnits(lo, hi, cmd.cycle)
		p.k.CommitBatch(part, len(p.bounds)-1, cmd.cycle)
	}
}

// phase runs one half-cycle over every partition and waits for all of
// them to finish it: broadcast to the worker lanes, run lane 0 here, then
// wait at the barrier and re-raise the first failed lane's panic, if any;
// with no worker lanes it is a plain call.
func (p *pool) phase(kind phaseKind, cycle uint64) {
	cmd := poolCmd{kind: kind, cycle: cycle}
	if len(p.cmd) == 0 {
		p.runLane(0, cmd)
		return
	}
	p.barrier.Add(len(p.cmd))
	for _, ch := range p.cmd {
		ch <- cmd
	}
	p.runLaneRecovering(0, cmd)
	p.barrier.Wait()
	for lane, v := range p.failed {
		if v != nil {
			clear(p.failed[lane:])
			panic(v)
		}
	}
}

// stop shuts the workers down and waits for them to exit.
func (p *pool) stop() {
	for _, ch := range p.cmd {
		close(ch)
	}
	p.done.Wait()
}
