package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"reflect"
	"runtime"
	"time"

	"metro/internal/clock"
	"metro/internal/netsim"
	"metro/internal/nic"
	"metro/internal/topo"
)

// resultStream folds a simulation's ordered nic.Result stream into a
// SHA-256 and the modelled-hardware tallies. The digest covers exactly
// the fields the simulated machine decides (id, src, dest, injected,
// done, retries, delivered), so any change to simulated behaviour moves
// it and no change to simulator speed can.
type resultStream struct {
	h         hash.Hash
	completed int64
	delivered int64
	retries   int64
	// latency (done - injected, cycles) is kept only when the stream
	// feeds the modelled-hardware metrics: a harness that retained every
	// repetition's samples would grow the live heap through the timed
	// region and so change how often the collector runs in the program
	// it is timing.
	keepLatency bool
	latency     []float64
}

func newResultStream(keepLatency bool) *resultStream {
	return &resultStream{h: sha256.New(), keepLatency: keepLatency}
}

func (s *resultStream) add(r nic.Result) {
	var buf [8*6 + 1]byte
	binary.LittleEndian.PutUint64(buf[0:], r.Msg.ID)
	binary.LittleEndian.PutUint64(buf[8:], uint64(r.Msg.Src))
	binary.LittleEndian.PutUint64(buf[16:], uint64(r.Msg.Dest))
	binary.LittleEndian.PutUint64(buf[24:], r.Injected)
	binary.LittleEndian.PutUint64(buf[32:], r.Done)
	binary.LittleEndian.PutUint64(buf[40:], uint64(r.Retries))
	if r.Delivered {
		buf[48] = 1
		s.delivered++
	}
	s.h.Write(buf[:])
	s.completed++
	s.retries += int64(r.Retries)
	if s.keepLatency {
		s.latency = append(s.latency, float64(r.Done-r.Injected))
	}
}

func (s *resultStream) digest() string { return hex.EncodeToString(s.h.Sum(nil)) }

// hardware returns the modelled-hardware metrics of a stream that kept
// its latencies. They are simulated time and repeat exactly for a seed.
func (s *resultStream) hardware() map[string]float64 {
	m := map[string]float64{
		"nic.msgs_completed":     float64(s.completed),
		"nic.latency_p50_cycles": percentile(s.latency, 50),
		"nic.latency_p95_cycles": percentile(s.latency, 95),
	}
	if s.completed > 0 {
		m["nic.delivered_ratio"] = float64(s.delivered) / float64(s.completed)
		m["nic.retries_per_msg"] = float64(s.retries) / float64(s.completed)
		// Every message makes one attempt plus one per retry; a
		// delivered message's last attempt is the useful one.
		m["nic.delivered_per_attempt"] = float64(s.delivered) / float64(s.completed+s.retries)
	}
	return m
}

// selectKernel asks netsim for the compiled kernel. Params.Kernel is
// slated for removal once the kernel is the only engine (ROADMAP item
// 2), so the field is set by name when it exists and the call is a
// no-op when it does not: the benchmark compiles and measures the same
// path on both sides of that refactor.
func selectKernel(p *netsim.Params) {
	f := reflect.ValueOf(p).Elem().FieldByName("Kernel")
	if f.IsValid() && f.Kind() == reflect.Bool && f.CanSet() {
		f.SetBool(true)
	}
}

// timedKernel decorates a clock.Kernel with wall-clock reads at its
// phase boundaries. The serial engine evaluates units [0, n) in one
// call; the decorator splits that call at the router/endpoint boundary
// (router columns come first, endpoints after, and a range runs in index
// order), so every unit still evaluates exactly once in the original
// order and the simulation stays bit-identical. Partial ranges (the
// parallel engine's partitions) pass through untimed.
type timedKernel struct {
	k       clock.Kernel
	routers int // units [0, routers) are router columns

	buf    *spanBuf
	parent int32 // the enclosing clock.step span
	op     int64
}

func (t *timedKernel) Units() int { return t.k.Units() }

func (t *timedKernel) EvalUnits(lo, hi int, cycle uint64) {
	if lo != 0 || hi != t.k.Units() || t.routers <= 0 || t.routers >= hi {
		t.k.EvalUnits(lo, hi, cycle)
		return
	}
	t0 := time.Now()
	t.k.EvalUnits(0, t.routers, cycle)
	t1 := time.Now()
	t.k.EvalUnits(t.routers, hi, cycle)
	t2 := time.Now()
	t.buf.add("kernel.eval_routers", t0, t1, t.parent, t.op)
	t.buf.add("kernel.eval_endpoints", t1, t2, t.parent, t.op)
}

func (t *timedKernel) CommitUnits(lo, hi int, cycle uint64) {
	t0 := time.Now()
	t.k.CommitUnits(lo, hi, cycle)
	t1 := time.Now()
	t.buf.add("kernel.commit_units", t0, t1, t.parent, t.op)
}

func (t *timedKernel) CommitBatch(part, parts int, cycle uint64) {
	t0 := time.Now()
	t.k.CommitBatch(part, parts, cycle)
	t1 := time.Now()
	t.buf.add("link.shuttle", t0, t1, t.parent, t.op)
}

// routerUnits is the number of router-column units a compiled kernel
// of this topology holds ahead of its endpoint units.
func routerUnits(spec topo.Spec) (int, error) {
	t, err := topo.Build(spec)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, rs := range t.RoutersPerStage {
		n += rs
	}
	return n, nil
}

// decorateKernel re-installs the engine's kernel wrapped in a
// timedKernel and returns it with an undo function. With no kernel
// installed (the per-component engine) it returns nil: the trace then
// splits off clock.step only.
func decorateKernel(n *netsim.Network, routers int, buf *spanBuf) (*timedKernel, func()) {
	k := n.Engine.Kernel()
	if k == nil {
		return nil, func() {}
	}
	tk := &timedKernel{k: k, routers: routers, buf: buf, parent: -1}
	n.Engine.SetKernel(tk)
	return tk, func() { n.Engine.SetKernel(k) }
}

// memDelta is the change in the Go runtime's allocation and GC
// counters across a region: the `host` layer's bill.
type memDelta struct {
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPauseNs:  after.PauseTotalNs - before.PauseTotalNs,
	}
}

// heapLiveMB forces a collection and returns the live heap in MB. It
// collects twice: sync.Pool contents (net/http and fmt buffers) survive
// one cycle in the victim cache, and how full those pools are is an
// accident of timing.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	m := readMem()
	return float64(m.HeapAlloc) / 1e6
}
