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
// wire latches: each staged value becomes one cycle older, and a reader sees
// it once it is as many cycles old as the wire is long.
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
// concurrently, in any order. The engine splits the unit index space into
// contiguous ranges, and a pool of lanes (the stepping goroutine and
// worker goroutines) claims them until none is left; the stepping
// goroutine then waits for the ranges the workers claimed, and only those,
// before the epilogue. Because a well-behaved unit's Eval touches only its
// own state plus the registers of its attached link ends — distinct memory
// per unit — that wait is the only synchronization needed, and the
// partitioned schedule is bit-for-bit equivalent to the inline one (one
// partition) whichever lane claims which range. Worker lanes spin briefly
// between cycles, so the hand-off is an atomic load rather than a wake,
// and a lane that gets no processor costs nothing: the stepping goroutine
// takes its ranges. SetWorkers(n) with n >= 1 asks for exactly n
// partitions; the default, 0, lets the engine choose from the kernel's
// size (see minLaneUnits, minSplitUnits and smallSplit): a kernel of a few
// dozen units runs inline, a compiled one of Figure 3's size runs on two
// lanes, and a large one is spread over one lane per processor. The epilogue,
// CommitUnits + CommitBatch and the latches always run on the stepping
// goroutine, the epilogue and the latches one at a time in registration
// order.
//
// An engine with no kernel simply evaluates its Add-ed components and
// latches its AddLatch-ed wires: that is how unit tests drive a handful
// of hand-wired routers.
package clock

import (
	"runtime"
	"sync"
	"sync/atomic"
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
// by dense index so the engine can drive them with plain loops — all in
// one range on the stepping goroutine, or partitioned into contiguous
// index ranges that lanes claim in no fixed order.
//
// Units must obey the isolation contract: a unit's EvalUnit touches only
// unit-local state plus the registers of the link ends it holds, so
// any index partition, its ranges evaluated in any order or on any lane,
// yields bit-for-bit the same schedule. The commit phase is not
// partitioned: the engine calls CommitUnits(0, Units()) and then
// CommitBatch(0, 1) once per cycle on the stepping goroutine, after the
// epilogue. CommitBatch commits state owned by no single unit. The kernels
// of this module keep all clock-edge state on their wires, so their
// CommitUnits are empty; kernel.Compiled's CommitBatch is empty too, since
// each of its EvalUnits ranges clears the link registers it read, while
// netsim.Reference's clears every link one by one.
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
	// CommitBatch commits shared bulk state (link pipelines) for one
	// partition of parts total. The engine calls CommitBatch(0, 1).
	CommitBatch(part, parts int, cycle uint64)
}

// Engine drives a kernel and a set of serialized components from a
// single central clock; see the package comment for the schedule.
type Engine struct {
	comps   []Component // the serialized epilogue, registration order
	latches []Latch     // wires outside the kernel, registration order
	cycle   uint64
	workers int // as set by SetWorkers; 0 = the engine chooses
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

// AddLatch registers clock-edge state outside the kernel's units: links
// from link.New, or the link arenas whose read planes a kernel has
// cleared. They commit at the end of every cycle, one at a
// time, in registration order, after the kernel's CommitBatch.
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

// minLaneUnits is how many kernel units SetWorkers(0) gives each lane
// past the second: a kernel of u units that it splits is evaluated on
// max(2, u/minLaneUnits) lanes, at most GOMAXPROCS, as laneRanges ranges a
// lane. It splits every kernel of 2*minLaneUnits units or more, and a
// smallSplit kernel from minSplitUnits up. docs/KERNEL.md ("Auto partitions") has the
// crossover curve the value was read from: a 1Ki-endpoint radix-4 network
// (2,560 units) and a 512-endpoint radix-2 one (3,072) stepped no faster
// on two lanes than on one when every eval cost a wake and a park, a 1Ki
// radix-2 one (6,656 units) about 1.5x faster and a 4Ki radix-4 one
// (11,264) about 2x.
const minLaneUnits = 2048

// minSplitUnits is the fewest units of a smallSplit kernel that
// SetWorkers(0) evaluates on more than one lane. A worker lane spinning
// between evals picks its ranges up within an atomic load, so two lanes
// repay themselves on Figure 3 (128 units, about 1.2x); on Figure 1 (40
// units) they do not, and on a 32-endpoint network (96 units) the gain is
// not yet resolved across processes (docs/KERNEL.md, "Auto partitions").
const minSplitUnits = 128

// smallSplit is a Kernel that SetWorkers(0) splits from minSplitUnits
// units rather than from 2*minLaneUnits; kernel.Compiled is one. A kernel
// that does not implement it keeps whole-range eval calls below
// 2*minLaneUnits units: bench's timing decorator, which wraps the compiled
// kernel and times router and endpoint eval only in a whole-range call,
// does not forward it, so a traced Figure 3 run keeps its per-layer spans.
type smallSplit interface{ SplitSmall() }

// laneRanges is how many contiguous ranges SetWorkers(0) splits a kernel
// into per lane; the lanes claim them until none is left. Router columns
// come first in the unit order and cost about twice what an endpoint
// does, so one range per lane, by count, leaves the endpoint-heavy lane
// idle for much of the eval; eight let a lane that finishes early take
// another range, on Figure 3's 128 units as on 11,264.
const laneRanges = 8

// SetWorkers selects how the kernel's units execute. n >= 1 splits them
// into n contiguous index ranges (at most maxParts) claimed by
// min(n, GOMAXPROCS) lanes: the stepping goroutine, and a persistent
// worker goroutine for each of the others; 1 is the inline run, with no
// goroutine. 0 (or negative), the default, lets the engine choose from
// the kernel's size and the platform (see minLaneUnits and
// minSplitUnits). The schedule is bit-for-bit equivalent for every n, so
// n is purely a throughput knob. Changing the worker count mid-run is
// allowed; the pool is rebuilt lazily on the next Step.
func (e *Engine) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	e.invalidate()
	e.workers = n
}

// Workers returns the configured worker count (0 = the engine chooses).
func (e *Engine) Workers() int { return e.workers }

// Partitions returns the number of unit ranges the engine steps its kernel
// in: the SetWorkers count, or the count it chose for 0 (laneRanges per
// lane when it partitions, else 1). A result above 1 means the ranges are
// claimed by min(Partitions, GOMAXPROCS) lanes, all but the first of them
// worker goroutines.
func (e *Engine) Partitions() int {
	if e.pool != nil {
		return len(e.pool.bounds) - 1
	}
	parts, _ := layout(e.workers, e.kernel)
	return parts
}

// layout resolves a worker count against a kernel into a partition count
// and the number of lanes that claim the partitions; see minLaneUnits and
// minSplitUnits.
func layout(workers int, k Kernel) (parts, lanes int) {
	procs := runtime.GOMAXPROCS(0)
	if workers > 0 || k == nil {
		parts = min(max(workers, 1), maxParts)
		return parts, min(parts, procs)
	}
	u, floor := k.Units(), 2*minLaneUnits
	if _, ok := k.(smallSplit); ok {
		floor = minSplitUnits
	}
	if u < floor || procs == 1 {
		return 1, 1
	}
	lanes = min(max(u/minLaneUnits, 2), procs)
	return lanes * laneRanges, lanes
}

// StopWorkers releases the worker goroutines, if any are running. The
// engine remains usable: the pool restarts lazily on the next Step.
// Call it when discarding an engine whose Partitions exceed 1, so sweeps
// over many networks do not accumulate idle goroutines; it is a no-op
// otherwise, so it is safe to call unconditionally.
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
	if e.kernel != nil {
		if e.pool == nil {
			e.pool = newPool(e.kernel, e.workers)
		}
		e.pool.eval(c)
	}
	for _, comp := range e.comps {
		comp.Eval(c)
	}
	if k := e.kernel; k != nil {
		k.CommitUnits(0, k.Units(), c)
		k.CommitBatch(0, 1, c)
	}
	for _, l := range e.latches {
		l.Commit(c)
	}
	e.cycle++
	if e.met != nil {
		e.metTick()
	}
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

// pool drives a kernel's unit eval. The unit population is split into
// parts contiguous index ranges, and each eval the g lanes (see layout)
// claim them from one atomic span of unclaimed partitions until it is
// empty: the coordinator (the stepping goroutine), lane 0, from the back,
// and the workers from the front. The coordinator runs lane 0 itself and
// the pool owns one persistent goroutine for each of the other g-1 lanes.
// With one partition, or a single processor, there is no goroutine at all.
//
// The span is tagged with the eval's epoch, and the coordinator waits only
// for the partitions that were claimed: a done counter reaches the
// partition count when the last of them finishes. A worker lane that has
// not started by the time the span is empty claims nothing (its claims
// carry the old epoch and fail), so the coordinator never waits for a lane
// that got no processor; it evaluates that lane's share itself, and the
// units still run out of index order. Between evals a worker spins on the
// span's epoch for spinPolls polls and then parks on its wake channel; the
// coordinator wakes only the lanes that parked. The span (for the cycle
// and everything before the eval) and the done counter (for everything a
// worker wrote during it) provide the happens-before edges.
//
// A unit that panics must not take the process down from a goroutine no
// caller can recover on, nor leave the done counter short. While worker
// lanes run, every lane (the coordinator's too) recovers a panic into the
// partition's slot of failed and goes on claiming, so every partition is
// evaluated whichever lanes fail; the coordinator then re-panics on the
// stepping goroutine with the value of the lowest partition that failed,
// which does not depend on which lane ran it, and the workers stay ready
// for the next eval or stop.
type pool struct {
	k      Kernel
	bounds []int // partition p covers units [bounds[p], bounds[p+1])
	// span is the unclaimed partitions [lo, hi) of eval epoch: the epoch
	// in the high 32 bits, hi in bits 16-31 and lo in bits 0-15.
	span  atomic.Uint64
	done  atomic.Int32 // partitions of the current eval finished
	epoch uint32       // the current eval's tag; the coordinator's alone
	// cycle is the current eval's cycle. The coordinator writes it before
	// it publishes the span, and a worker reads it only after a claim in
	// that span succeeds, so the next write waits on that worker's done.
	cycle   uint64
	failed  []any  // per partition, the panic recovered this eval; nil when g == 1
	lanes   []lane // worker lanes 1 .. g-1
	stopped atomic.Bool
	exited  sync.WaitGroup
}

// lane is a worker lane's parking place. parked is set by the worker
// just before it blocks on wake, and cleared by whichever side takes it
// back first: the worker, if it sees a new epoch on its last look, or the
// coordinator, which then owes the lane one token on wake.
type lane struct {
	parked atomic.Bool
	wake   chan struct{} // 1 slot: at most one token is ever owed
}

// maxParts is the most partitions the span's 16-bit bounds can hold.
const maxParts = 1<<16 - 1

// spinPolls is how many times an idle worker lane polls the span for the
// next eval before it parks, and yieldEvery how often a polling lane,
// worker or coordinator, yields its processor. 2,000 polls last 8-10 us on
// a 2-vCPU box, a few Figure 3 epilogues, so a worker lane that keeps pace
// with the stepping goroutine seldom parks, and one that idles (between
// networks, or behind a long epilogue) stops spinning soon after.
const (
	spinPolls  = 2000
	yieldEvery = 64
)

func newPool(k Kernel, workers int) *pool {
	parts, lanes := layout(workers, k)
	p := &pool{k: k, bounds: make([]int, parts+1), lanes: make([]lane, lanes-1)}
	n := k.Units()
	for i := range p.bounds {
		p.bounds[i] = i * n / parts
	}
	if lanes > 1 {
		p.failed = make([]any, parts)
	}
	p.exited.Add(len(p.lanes))
	for i := range p.lanes {
		p.lanes[i].wake = make(chan struct{}, 1)
		go p.worker(&p.lanes[i])
	}
	return p
}

// worker is the goroutine behind worker lane l: it waits for each eval's
// span and claims partitions from the front until the pool stops.
func (p *pool) worker(l *lane) {
	defer p.exited.Done()
	var seen uint32
	for {
		seen = p.await(l, seen)
		if p.stopped.Load() {
			return
		}
		p.runLane(seen, false)
	}
}

// await returns the epoch of the first span published after epoch seen,
// polling for it and then parking on l.wake.
func (p *pool) await(l *lane, seen uint32) uint32 {
	for polls := 1; ; polls++ {
		if e := uint32(p.span.Load() >> 32); e != seen {
			return e
		}
		if polls%yieldEvery == 0 {
			runtime.Gosched()
		}
		if polls < spinPolls {
			continue
		}
		l.parked.Store(true)
		if e := uint32(p.span.Load() >> 32); e != seen {
			if !l.parked.CompareAndSwap(true, false) {
				<-l.wake // the coordinator saw the flag first: take its token
			}
			return e
		}
		<-l.wake
		polls = 0
	}
}

// runLane claims partitions of eval epoch, from the back for lane 0 and
// from the front for a worker, and evaluates each, until none is left.
func (p *pool) runLane(epoch uint32, back bool) {
	for part := p.claim(epoch, back); part >= 0; part = p.claim(epoch, back) {
		p.evalPart(part)
		p.done.Add(1)
	}
}

// claim takes one partition of eval epoch off the unclaimed span, the last
// one for lane 0 (back) and the first for a worker, and returns -1 once
// none is left or the span belongs to another epoch.
func (p *pool) claim(epoch uint32, back bool) int {
	for {
		s := p.span.Load()
		lo, hi := uint16(s), uint16(s>>16)
		if uint32(s>>32) != epoch || lo == hi {
			return -1
		}
		next, part := s+1, lo
		if back {
			next, part = s-1<<16, hi-1
		}
		if p.span.CompareAndSwap(s, next) {
			return int(part)
		}
	}
}

// evalPart evaluates the units of partition part. While worker lanes run,
// a panic is kept in the partition's failed slot for the coordinator to
// re-raise, and the lane goes on claiming.
func (p *pool) evalPart(part int) {
	if p.failed != nil {
		defer func() {
			if v := recover(); v != nil {
				p.failed[part] = v
			}
		}()
	}
	p.k.EvalUnits(p.bounds[part], p.bounds[part+1], p.cycle)
}

// publish opens a new epoch's span of n unclaimed partitions and wakes
// the worker lanes that parked. The worker sets parked before its last
// look at the span and the coordinator reads it after the store, so at
// least one of them sees the other: no wake is lost.
func (p *pool) publish(n int) {
	p.epoch++
	p.span.Store(uint64(p.epoch)<<32 | uint64(n)<<16)
	for i := range p.lanes {
		if l := &p.lanes[i]; l.parked.Load() && l.parked.CompareAndSwap(true, false) {
			l.wake <- struct{}{}
		}
	}
}

// eval runs unit eval over every partition and returns once each has
// finished it: publish the cycle and the span, claim from the back here,
// then wait for the partitions the worker lanes claimed and re-raise the
// lowest failed partition's panic, if any. With no worker lanes lane 0
// claims every partition, and a panic leaves Step directly.
func (p *pool) eval(cycle uint64) {
	parts := len(p.bounds) - 1
	p.cycle = cycle
	p.done.Store(0)
	p.publish(parts)
	p.runLane(p.epoch, true)
	if len(p.lanes) == 0 {
		return
	}
	for polls := 1; p.done.Load() != int32(parts); polls++ {
		if polls%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	for part, v := range p.failed {
		if v != nil {
			clear(p.failed[part:])
			panic(v)
		}
	}
}

// stop shuts the workers down, spinning or parked, and waits for them to
// exit: it publishes an empty span, which every lane sees as a new epoch.
func (p *pool) stop() {
	p.stopped.Store(true)
	p.publish(0)
	p.exited.Wait()
}
