package core

import (
	"fmt"
	"math/bits"

	"metro/internal/link"
	"metro/internal/prng"
	"metro/internal/telemetry"
	"metro/internal/word"
)

// fpState enumerates the forward-port connection states.
type fpState uint8

const (
	// fpIdle: no connection; the port watches for ROUTE words.
	fpIdle fpState = iota
	// fpHeader: connection allocated, consuming remaining setup header
	// words (HeaderWords > 1).
	fpHeader
	// fpForward: connection open, data flowing source → destination.
	fpForward
	// fpReversed: connection open, data flowing destination → source.
	fpReversed
	// fpBlockedWait: blocked in detailed mode, swallowing the stream while
	// waiting for the TURN that will trigger the status reply.
	fpBlockedWait
	// fpBlockedReply: blocked in detailed mode, transmitting
	// STATUS/CHECKSUM/DROP back toward the source.
	fpBlockedReply
	// fpDrain: fast path reclamation — asserting BCB toward the source and
	// swallowing the incoming stream until it ends.
	fpDrain
)

var fpStateNames = [...]string{
	fpIdle:         "IDLE",
	fpHeader:       "HEADER",
	fpForward:      "FORWARD",
	fpReversed:     "REVERSED",
	fpBlockedWait:  "BLOCKED-WAIT",
	fpBlockedReply: "BLOCKED-REPLY",
	fpDrain:        "DRAIN",
}

// String returns the state mnemonic for traces and invariant failures.
func (s fpState) String() string {
	if int(s) < len(fpStateNames) {
		return fpStateNames[s]
	}
	return fmt.Sprintf("fpState(%d)", uint8(s))
}

// SelectionPolicy chooses how a router picks among the available backward
// ports of a direction. The METRO architecture specifies SelectRandom
// (stochastic path selection, the key to congestion and fault avoidance);
// SelectFirstFree is a deterministic ablation used by the experiments to
// quantify what the randomness buys.
type SelectionPolicy int

const (
	// SelectRandom picks uniformly among available ports using the
	// router's random input bits (the architecture's behavior).
	SelectRandom SelectionPolicy = iota
	// SelectFirstFree always picks the lowest-numbered available port.
	SelectFirstFree
)

// injWords is the worst-case injection sequence of a port at channel
// width w: STATUS + checksum words + DROP, the detailed blocked reply. It
// is also the bound of a flow's queue, which holds a reversal's STATUS and
// checksum words and the stream words they displace: the sequence is
// staged only into an empty queue (flip discards what was pending), and
// from then on each cycle takes one word out and displaces at most one in,
// so occupancy never exceeds the sequence staged. Exceeding it indicates a
// protocol bug, not a congestion condition (see DESIGN.md).
func injWords(w word.Width) int { return 2 + word.ChecksumWords(w) }

// flow is the part of a connection's state that moves words through a
// buffer set: the staged pipeline input, the backward port the connection
// holds and the cursors into its queue. A connected forward port and a
// detached closer each hold one, and the router advances both through the
// same methods (shiftPipe, selectOutput, buffer, stageInject, turnInPipe).
//
// The buffers themselves live in Router.bufs, one set per backward port:
// as in the paper's router, a connection's data pipeline and injected
// words travel with the backward port it holds, so bp names the set (-1:
// no connection, and no set). The cursors are bounded by injWords (at most
// 10 at width 1). The words waiting to leave ahead of the pipe are
// queue[qHead:qLen]: a staged injection sequence first, then the stream
// words it displaced, the order they leave in. They are consumed through
// the head cursor so the region is reused in place; see buffer() for the
// compaction. A port replying to a detailed block holds no backward port
// and counts its bufferless reply on the same cursors (replyWord).
type flow struct {
	pipeIn word.Word // word staged into the pipe this cycle
	bp     int8      // allocated backward port and buffer set, -1 when none
	qHead  uint8     // next queue element to transmit
	qLen   uint8     // queue elements staged or buffered
}

// fwdPort holds the per-forward-port connection state machine: half a
// cache line (layout_test.go pins 32 bytes), with its pipe and queue
// buffers one index away in the router's backing array. Port numbers
// are bytes because Config.Validate bounds them by MaxPorts; hdrLeft stays
// an int because HeaderWords has no upper bound.
type fwdPort struct {
	flow
	hdrLeft   int // header words still to consume (fpHeader); a parked request's direction (fpIdle, see parseRoute)
	state     fpState
	ck        word.Checksum
	revActive bool // reversed: downstream has begun transmitting
	closing   bool // a synthesized DROP is flushing through the pipe
	bcbOut    bool // asserting BCB toward the source
}

// reset returns the port to state s with no connection and no buffer set.
func (p *fwdPort) reset(s fpState) {
	*p = fwdPort{flow: flow{bp: -1}, state: s}
}

// closer is the detached tail of a closing forward connection: when the
// input side of a connection sees its DROP (or the channel go idle), the
// forward port is released immediately so a new connection request can be
// accepted, while the crosspoint keeps flushing the in-flight pipeline
// words — ending with a DROP — out the backward port. The backward port
// stays busy until the flush completes. The closer takes over the port's
// flow, and with it the backward port and the buffer set the in-flight
// words sit in. The deadline leads so that the flow's 12 bytes and the
// port byte pack behind it (layout_test.go pins the size).
type closer struct {
	deadline int
	flow
	fp int8 // original owner, for tracing
}

// hotHeader is everything an idle router's Eval reads, packed into the
// struct's first cache line: the paper's idle port is a handful of gates
// watching one wire for a ROUTE word, and the model's should cost this
// line plus the input registers its ends name. The port masks index
// forward ports by bit, which Config.Validate's 64-port bound makes exact.
// layout_test.go pins the offset and size.
type hotHeader struct {
	// live marks the forward ports that were not fpIdle when the last Eval
	// finished. Nothing changes a port's idleness between Evals
	// (KillConnection moves a live port to fpDrain), so during inputPass a
	// clear bit means fpIdle without loading the fwdPort.
	live uint64
	// enabled marks the forward ports that are both enabled in the
	// settings and attached to a link: the ports inputPass watches.
	// AttachForward, ApplySettings and SetForwardEnabled recompute it.
	enabled uint64
	// fin holds the forward ports' link ends by value (the router is the
	// B, downstream, end); the zero End is an unattached port. A port
	// leaves fpIdle only in inputPass, which reads attached ports alone,
	// so a port with a connection is attached.
	fin []link.End
	// closers are the detached connection flushes in progress, at most one
	// per backward port (capacity Outputs, which detach never reslices
	// past).
	closers []closer
}

// Router is one METRO routing component: a dilated i x o crossbar with
// pipelined, circuit-switched, reversible connections. See the package
// comment for the mechanism inventory.
//
// A Router is a clock.Component. It communicates exclusively through the
// link ends attached to its ports, so any Eval order among routers is
// valid.
type Router struct {
	hotHeader

	// The second and third cache lines hold what a router with a live port
	// reads on top of the header: the ports, the geometry that finds their
	// buffers, the backward side and the telemetry buffer.
	fwd []fwdPort
	// bufs backs every connection's buffers: a buffer set of dp + injCap
	// words (see pipe and queue) per backward port, where dp is
	// cfg.DataPipe and injCap is injWords(cfg.width). A flow names its set
	// by the backward port it holds, so a set has one holder at a time: the
	// connected forward port or the closer flushing the port after it.
	// CheckInvariants audits it.
	bufs   []word.Word
	dp     int
	injCap int

	// bLinks holds the backward ports' link ends by value (the router is
	// the A, upstream, end); the zero End is an unattached port. Only an
	// attached port is ever allocated, so a port a flow holds is attached.
	bLinks []link.End
	busyBy []int8 // per backward port: owner fp, -1 free, -2 flushing close
	// tel is the unit-local telemetry buffer connection-lifecycle events
	// go to (nil: none recorded); src is the router's identity as an
	// event source, narrowed once in SetID.
	tel *telemetry.Buf
	src telemetry.Source

	rng    prng.LFSR
	policy SelectionPolicy
	// cfg is the Shape the router's stage shares, and set points into
	// it. The Config and width are never written; the Settings are the
	// stage's until a scan-style mutator writes them, which first gives
	// the router a private copy and sets own (see ownSettings). Nothing
	// writes settings the router does not own.
	cfg *Shape
	set *Settings
	own bool

	name string

	// Rounds the struct up to a multiple of the 64-byte line, so the size
	// class it is allocated from keeps the hot header line-aligned
	// (layout_test.go).
	_ [8]byte
}

// pipe and queue are the two regions of f's buffer set, in that order in
// the backing array: the dp pipeline stages, then injCap words of which
// queue[qHead:qLen] are pending. Each operation slices the one region it
// works on. The three-index slices stop a region at its capacity, so an
// append or index past it cannot alias the neighbouring region or set.
func (r *Router) pipe(f *flow) []word.Word {
	lo := r.setBase(f)
	return r.bufs[lo : lo+r.dp : lo+r.dp]
}

func (r *Router) queue(f *flow) []word.Word {
	lo := r.setBase(f) + r.dp
	return r.bufs[lo : lo+r.injCap : lo+r.injCap]
}

// setBase is where f's buffer set starts in bufs: negative, and so a
// panicking slice, for a flow that holds no backward port.
func (r *Router) setBase(f *flow) int { return int(f.bp) * (r.dp + r.injCap) }

// NewRouter constructs a router with the given architectural parameters,
// run-time settings, and LFSR seed: a stage of one router, whose
// Shape nobody else reads. It panics on invalid parameters: router
// construction is network construction time, where configuration errors
// are programming errors.
func NewRouter(name string, cfg Config, set Settings, seed uint32) *Router {
	sh, err := NewShape(cfg, set)
	if err != nil {
		panic(fmt.Sprintf("core: %s: %v", name, err))
	}
	r := sh.NewRouter(name, seed)
	r.own = true
	return r
}

// NewRouter constructs a router of the shape's stage whose LFSR starts
// from seed. The router reads the shape's Config and Settings in place
// until a mutator writes its settings.
func (sh *Shape) NewRouter(name string, seed uint32) *Router {
	cfg := &sh.Config
	// A queue holds up to injWords words: buffer()'s overflow guard.
	injCap := injWords(sh.width)
	r := &Router{
		hotHeader: hotHeader{
			fin:     make([]link.End, cfg.Inputs),
			closers: make([]closer, 0, cfg.Outputs),
		},
		name:   name,
		cfg:    sh,
		set:    &sh.set,
		rng:    prng.NewLFSR(seed),
		bLinks: make([]link.End, cfg.Outputs),
		fwd:    make([]fwdPort, cfg.Inputs),
		busyBy: make([]int8, cfg.Outputs),
		dp:     cfg.DataPipe,
		injCap: injCap,
		bufs:   make([]word.Word, cfg.Outputs*(cfg.DataPipe+injCap)),
	}
	r.SetID(-1, -1, 0) // not placed in a network
	for i := range r.fwd {
		r.fwd[i].bp = -1
	}
	for i := range r.busyBy {
		r.busyBy[i] = -1
	}
	return r
}

// Name returns the router's identifier.
func (r *Router) Name() string { return r.name }

// SetID records the router's structured position in its network: stage
// and index locate the logical router, lane the member of a
// width-cascaded column (0 for plain routers). A router no network has
// placed is stage -1, index -1, lane 0. Telemetry events carry this
// identity as their source, so observers aggregate by stage/index/lane
// instead of parsing names.
func (r *Router) SetID(stage, index, lane int) {
	r.src = telemetry.RouterSource(stage, index, lane)
}

// Config returns the architectural parameters.
func (r *Router) Config() Config { return r.cfg.Config }

// Width returns the channel width, Config().Width as a word.Width.
func (r *Router) Width() word.Width { return r.cfg.width }

// Settings returns a copy of the current run-time settings.
func (r *Router) Settings() Settings { return r.set.Clone() }

// SetSelectionPolicy overrides the output-selection policy (experiments
// only; the architecture specifies SelectRandom).
func (r *Router) SetSelectionPolicy(p SelectionPolicy) { r.policy = p }

// SetTelemetry attaches the unit-local buffer the router's
// connection-lifecycle events (EvConn*) go to; nil records none. Cascade
// lanes of one logical router form one kernel unit and may share a buffer.
func (r *Router) SetTelemetry(b *telemetry.Buf) { r.tel = b }

// emit records one connection-lifecycle event on forward port fp. It runs
// during Eval and costs one branch when no buffer is attached.
//
//metrovet:truncate fp and b are port numbers, below MaxPorts by Config.Validate, a direction below the radix, -1 or a 0/1 flag
func (r *Router) emit(cycle uint64, kind telemetry.Kind, fp, b int) {
	if r.tel != nil {
		r.tel.Emit(telemetry.Event{Cycle: cycle, Src: r.src, Kind: kind, A: int32(fp), B: int32(b)})
	}
}

// AttachForward connects link end e to forward port fp.
func (r *Router) AttachForward(fp int, e link.End) {
	r.fin[fp] = e
	r.syncEnabled()
}

// AttachBackward connects link end e to backward port bp.
func (r *Router) AttachBackward(bp int, e link.End) { r.bLinks[bp] = e }

// ForwardLink returns the link end attached to forward port fp, the zero
// End if none is.
func (r *Router) ForwardLink(fp int) link.End { return r.fin[fp] }

// BackwardLink returns the link end attached to backward port bp, the zero
// End if none is.
func (r *Router) BackwardLink(bp int) link.End { return r.bLinks[bp] }

// ApplySettings replaces the run-time settings, as a scan UPDATE-DR of the
// configuration register would. Connections already open are unaffected
// except that newly disabled ports stop accepting new connections.
func (r *Router) ApplySettings(set Settings) error {
	if err := set.Validate(r.cfg.Config); err != nil {
		return err
	}
	*r.ownSettings() = set.Clone()
	r.syncEnabled()
	return nil
}

// ownSettings returns the router's settings for writing. A router still
// reading its stage's shared Shape first takes a private copy, so the write
// reaches no sibling.
func (r *Router) ownSettings() *Settings {
	if !r.own {
		set := r.set.Clone()
		r.set, r.own = &set, true
	}
	return r.set
}

// syncEnabled recomputes the mask of forward ports inputPass watches.
func (r *Router) syncEnabled() { r.enabled = r.watchedPorts() }

// watchedPorts returns the mask of forward ports that are enabled in the
// settings and attached to a link.
func (r *Router) watchedPorts() uint64 {
	var attached uint64
	for fp, in := range r.fin {
		if in != (link.End{}) { // the zero End is an unattached port
			attached |= bit(fp)
		}
	}
	return r.set.ForwardEnabled & attached
}

// bit is port p's bit in a per-port mask. Every port is below MaxPorts,
// so the mask is the identity: it proves the shift width where it is used.
func bit(p int) uint64 { return 1 << (p & (MaxPorts - 1)) }

// withPort returns mask m with port p's bit set to on. A port outside
// [0, n), the bank's port count, panics, as an index past a per-port slice
// would.
func withPort(m uint64, p, n int, on bool) uint64 {
	if p < 0 || p >= n {
		panic("core: port number outside the router")
	}
	if on {
		return m | bit(p)
	}
	return m &^ bit(p)
}

// ForwardEnabled reports whether forward port fp is enabled: the cheap
// per-port read for per-cycle paths that must not deep-copy Settings.
func (r *Router) ForwardEnabled(fp int) bool { return r.set.ForwardEnabled&bit(fp) != 0 }

// BackwardEnabled reports whether backward port bp is enabled: the cheap
// per-port read for per-cycle paths that must not deep-copy Settings.
func (r *Router) BackwardEnabled(bp int) bool { return r.set.BackwardEnabled&bit(bp) != 0 }

// SetForwardEnabled enables or disables forward port fp during operation.
func (r *Router) SetForwardEnabled(fp int, on bool) {
	s := r.ownSettings()
	s.ForwardEnabled = withPort(s.ForwardEnabled, fp, r.cfg.Inputs, on)
	r.syncEnabled()
}

// SetBackwardEnabled enables or disables backward port bp during operation.
func (r *Router) SetBackwardEnabled(bp int, on bool) {
	s := r.ownSettings()
	s.BackwardEnabled = withPort(s.BackwardEnabled, bp, r.cfg.Outputs, on)
}

// SetFastReclaim selects the path reclamation mode of forward port fp
// during operation, as a scan CONFIG load of the Table 2 register would.
// Section 5.1 says the tradeoff may be handled dynamically: in the mixed
// mode a portion of the network, such as one stage, is switched to
// detailed blocked replies (on = false) to gather information about where
// connections block, while the rest recovers fast.
func (r *Router) SetFastReclaim(fp int, on bool) {
	s := r.ownSettings()
	s.FastReclaim = withPort(s.FastReclaim, fp, r.cfg.Inputs, on)
}

// Dilation returns the configured effective dilation.
func (r *Router) Dilation() int { return r.set.Dilation }

// Radix returns the number of logical output directions at the configured
// dilation.
func (r *Router) Radix() int { return r.cfg.Radix(r.set.Dilation) }

// DirBits returns the routing bits consumed per connection.
func (r *Router) DirBits() uint8 { return r.cfg.DirBits(r.set.Dilation) }

// PortsFor returns the backward port range serving direction dir.
func (r *Router) PortsFor(dir int) (lo, hi int) {
	return dir * r.set.Dilation, (dir + 1) * r.set.Dilation
}

// ConnectionCount returns the number of forward ports holding open or
// in-progress connections (including blocked/draining ones).
func (r *Router) ConnectionCount() int { return bits.OnesCount64(r.live) }

// ClosingCount returns the number of detached connection flushes in
// progress.
func (r *Router) ClosingCount() int { return len(r.closers) }

// BackwardInUse returns a bitmask of allocated backward ports, the analogue
// of the IN-USE consistency signal used by width cascading (Section 5.1).
func (r *Router) BackwardInUse() uint64 {
	var m uint64
	bit := uint64(1) // Config.Validate bounds Outputs to the mask's 64 bits
	for _, fp := range r.busyBy {
		if fp >= 0 {
			m |= bit
		}
		bit <<= 1
	}
	return m
}

// OwnerOf returns the forward port owning backward port bp, or -1.
func (r *Router) OwnerOf(bp int) int { return int(r.busyBy[bp]) }

// KillConnection forcibly shuts down the connection on forward port fp, as
// the cascade consistency check does when the wired-AND IN-USE signal
// detects an allocation disagreement. The backward port is freed and the
// port drains with BCB asserted so the source learns of the failure.
// cascade.Eval calls it inside its column's Eval.
func (r *Router) KillConnection(cycle uint64, fp int) {
	p := &r.fwd[fp]
	if p.state == fpIdle {
		return
	}
	r.freeBackward(fp)
	r.emit(cycle, telemetry.EvConnReleased, fp, -1)
	p.reset(fpDrain)
	p.bcbOut = true
}

// Eval implements clock.Component. See DESIGN.md for the three-pass
// structure: input handling, allocation, output staging.
func (r *Router) Eval(cycle uint64) {
	requested := r.inputPass(cycle)
	if r.live|requested == 0 && len(r.closers) == 0 {
		// Quiescent: no connection to advance, no request to serve, no
		// close to flush. The passes below would all be empty walks.
		return
	}
	r.allocate(cycle, requested)
	r.outputPass(cycle, requested)
	r.runClosers(cycle)
}

// inputPass reads the input of every enabled, attached forward port in
// ascending port order, advances connection state machines, and parks new
// connection requests in their idle ports (parseRoute). It returns the mask
// of requesting ports.
//
// An idle port whose word is not a ROUTE is done at the register read: the
// state switch below would find fpIdle, no backward port and nothing to
// parse, so the fwdPort is never loaded.
func (r *Router) inputPass(cycle uint64) (requested uint64) {
	fin, live := r.fin, r.live
	for m := r.enabled; m != 0; m &= m - 1 {
		fp := bits.TrailingZeros64(m)
		if fp >= len(fin) {
			break // unreachable: the mask names attached ports only
		}
		in := fin[fp].Recv()
		bit := m & -m
		if live&bit == 0 && in.Kind != word.Route {
			continue
		}
		p := &r.fwd[fp]

		// BCB arriving from downstream on the allocated backward port
		// tears the connection down regardless of state (fast path
		// reclamation propagating toward the source).
		if p.bp >= 0 && r.bLinks[p.bp].RecvBCB() {
			r.freeBackward(fp)
			r.emit(cycle, telemetry.EvConnReleased, fp, -1)
			p.reset(fpDrain)
			p.bcbOut = true
			// Fall through to fpDrain handling with this cycle's input.
		}

		switch p.state {
		case fpIdle:
			if in.Kind == word.Route && r.parseRoute(p, fp, in) {
				requested |= bit
			}
			// HeaderPad and any stray words at an idle port are ignored.

		case fpHeader:
			if in.Kind == word.Drop || in.IsEmpty() {
				// Upstream closed during setup: nothing has been
				// forwarded yet, so release everything at once.
				bp := int(p.bp)
				r.freeBackward(fp)
				p.reset(fpIdle)
				r.emit(cycle, telemetry.EvConnReleased, fp, bp)
				continue
			}
			p.ck.Add(in)
			p.hdrLeft--
			p.pipeIn = word.Word{}
			if p.hdrLeft == 0 {
				p.state = fpForward
			}

		case fpForward:
			switch {
			case in.Kind == word.Drop:
				// The connection is closing. The input side releases
				// immediately so a new request can arrive next cycle; the
				// in-flight pipeline words flush out the backward port
				// detachedly, terminated by a DROP.
				r.detach(cycle, fp)
			case in.IsEmpty():
				if r.turnInPipe(&p.flow) {
					// Post-TURN quiet: the reversal is in flight, not a
					// dead source.
					p.pipeIn = word.Word{}
				} else {
					// Upstream channel went idle: dead source; close as
					// for a DROP.
					r.detach(cycle, fp)
				}
			default:
				p.ck.Add(in)
				p.pipeIn = in
			}

		case fpReversed:
			// The transmission prerogative lies with the far end, but the
			// receiving end may still close: a DROP arriving on the
			// forward channel tears the reversed path down hop by hop
			// (needed when a source abandons a turned connection).
			if in.Kind == word.Drop {
				r.bLinks[p.bp].Send(word.Word{Kind: word.Drop})
				bp := int(p.bp)
				r.freeBackward(fp)
				p.reset(fpIdle)
				r.emit(cycle, telemetry.EvConnReleased, fp, bp)
				continue
			}
			rin := r.bLinks[p.bp].Recv()
			switch {
			case p.closing:
				p.pipeIn = word.Word{}
			case rin.IsEmpty() && p.revActive:
				// Downstream went silent after transmitting: treat as an
				// implicit DROP (robustness against dead components).
				p.pipeIn = word.Word{Kind: word.Drop}
				p.closing = true
			case rin.IsEmpty():
				p.pipeIn = word.Word{} // reversal transient
			default:
				p.revActive = true
				p.ck.Add(rin)
				p.pipeIn = rin
			}

		case fpBlockedWait:
			switch in.Kind {
			case word.Turn:
				// The reply is injWords long; replyWord words it from the
				// cursor. injCap is at most 10 (width 1), where & 15 is the
				// identity; the & 15 is what shows the conversion its bound.
				p.qHead, p.qLen = 0, uint8(r.injCap&15)
				p.state = fpBlockedReply
				r.emit(cycle, telemetry.EvConnTurned, fp, 1)
			case word.Drop, word.Empty:
				r.emit(cycle, telemetry.EvConnReleased, fp, -1)
				p.reset(fpIdle)
			case word.Route, word.HeaderPad, word.Data, word.DataIdle,
				word.Status, word.ChecksumWord:
				// Stream content while blocked still feeds the checksum the
				// status reply will report.
				p.ck.Add(in)
			}

		case fpBlockedReply:
			// Input ignored; the reply drains in the output pass.

		case fpDrain:
			switch in.Kind {
			case word.Drop, word.Empty:
				p.reset(fpIdle)
			case word.Route, word.HeaderPad, word.Data, word.DataIdle,
				word.Turn, word.Status, word.ChecksumWord:
				// Swallow the remains of the aborted stream.
			}
		}
	}
	return requested
}

// parseRoute interprets a ROUTE word arriving at idle forward port p (port
// number fp) and parks the connection request in fields an idle port leaves
// dead: the checksum seeded with the word as received, the word to forward
// downstream (Empty if consumed) in pipeIn and the requested direction in
// hdrLeft. allocate takes every parked request up in the same Eval. It
// returns false, parking nothing, for malformed words (fewer routing bits
// than this router consumes), which are discarded — the
// source-responsible protocol will time out and retry.
func (r *Router) parseRoute(p *fwdPort, fp int, in word.Word) bool {
	need := r.DirBits()
	if in.Bits < need {
		return false
	}
	dir := int(in.Payload) & (r.Radix() - 1)
	fwdWord := word.Word{}
	if r.cfg.HeaderWords == 0 {
		// need is at most 6 (Config.Validate caps Outputs at MaxPorts),
		// where & 31 is the identity; the & 31 is what shows the shift its
		// bound.
		rest := in.Payload >> (need & 31)
		if rem := in.Bits - need; rem > 0 {
			fwdWord = word.MakeRoute(rest, rem)
		} else if r.set.Swallow&bit(fp) == 0 {
			// Exhausted routing word forwarded as setup padding.
			fwdWord = word.Word{Kind: word.HeaderPad, Payload: rest}
		}
	}
	// With HeaderWords >= 1 the entire first word is consumed here and
	// hw-1 further words are consumed in fpHeader.
	p.ck.Reset()
	p.ck.Add(in)
	p.pipeIn = fwdWord
	p.hdrLeft = dir
	return true
}

// allocate serves the cycle's connection requests, the ports in requested:
// for each, a backward port in the requested direction is chosen uniformly
// at random among the available ones using the router's random input bits.
// Requests are served in ascending forward-port order, which makes
// allocation a deterministic function of (requests, random bits): lanes
// whose LFSRs are seeded alike allocate alike, the property width
// cascading depends on.
//
//metrovet:truncate fp is a forward port number, below MaxPorts = 64 by Config.Validate, and bp a bit index of a nonzero uint64
func (r *Router) allocate(cycle uint64, requested uint64) {
	fwd := r.fwd
	for m := requested; m != 0; m &= m - 1 {
		fp := bits.TrailingZeros64(m)
		if fp >= len(fwd) {
			break // unreachable: requested names existing ports only
		}
		p := &fwd[fp]
		dir := p.hdrLeft
		lo, hi := r.PortsFor(dir)
		// cand marks the direction's available backward ports, a bit each.
		var cand uint64
		for bp := lo; bp < hi; bp++ {
			if e := r.bLinks[bp]; r.busyBy[bp] == -1 && e != (link.End{}) && !e.Dead() {
				cand |= bit(bp)
			}
		}
		cand &= r.set.BackwardEnabled
		avail := bits.OnesCount64(cand)
		if avail == 0 {
			r.block(cycle, p, fp, dir)
			continue
		}
		// The pick indexes the candidates in ascending port order.
		for k := r.pick(avail); k > 0; k-- {
			cand &= cand - 1
		}
		bp := bits.TrailingZeros64(cand)
		r.busyBy[bp] = int8(fp)
		p.bp = int8(bp)
		// The checksum and pipeIn already hold what parseRoute parked.
		clear(r.pipe(&p.flow))
		p.qHead, p.qLen = 0, 0
		p.revActive = false
		p.closing = false
		if r.cfg.HeaderWords > 1 {
			p.state = fpHeader
			p.hdrLeft = r.cfg.HeaderWords - 1
		} else {
			p.state = fpForward
			p.hdrLeft = 0
		}
		r.emit(cycle, telemetry.EvConnSetup, fp, bp)
	}
}

// pick selects an index in [0, n) using ceil(log2(n)) random input bits
// (or deterministically under the SelectFirstFree ablation).
func (r *Router) pick(n int) int {
	if n <= 1 || r.policy == SelectFirstFree {
		return 0
	}
	return int(r.rng.NextBits(int(log2(n)))) % n
}

// block handles the unservable request parked on forward port p (number fp)
// for direction dir according to the port's reclamation mode. A detailed
// block keeps the checksum parseRoute seeded: the status reply reports it.
func (r *Router) block(cycle uint64, p *fwdPort, fp, dir int) {
	fast := r.set.FastReclaim&bit(fp) != 0
	if fast {
		r.emit(cycle, telemetry.EvConnBlockedFast, fp, dir)
		p.reset(fpDrain)
		p.bcbOut = true
		return
	}
	r.emit(cycle, telemetry.EvConnBlockedDetailed, fp, dir)
	ck := p.ck
	p.reset(fpBlockedWait)
	p.ck = ck
}

// outputPass shifts connection pipelines and stages this cycle's link
// outputs for every active forward port, in ascending port order. A port
// can only be active if it was live when the cycle began or made a request
// during it, so those are the ports walked — whether or not they are still
// enabled: a connection open on a port that is then masked keeps draining.
// The walk leaves r.live naming exactly the ports that end the cycle
// non-idle.
func (r *Router) outputPass(cycle uint64, requested uint64) {
	fwd := r.fwd
	var live uint64
	for m := r.live | requested; m != 0; m &= m - 1 {
		fp := bits.TrailingZeros64(m)
		if fp >= len(fwd) {
			break // unreachable: live and requested name existing ports only
		}
		p := &fwd[fp]
		switch p.state {
		case fpIdle, fpBlockedWait:
			// No connection output: an idle port transmits nothing, and a
			// blocked port swallows its stream until the TURN arrives.

		case fpHeader:
			// Nothing flows downstream during setup consumption; keep the
			// pipe shifting so residency stays dp cycles.
			r.shiftPipe(&p.flow)

		case fpForward:
			out := r.shiftPipe(&p.flow)
			// Idle fill is Empty here: during initial pipe priming the
			// downstream port may be draining an aborted predecessor
			// connection and needs to observe the channel go idle before
			// the new stream begins. Established hops never see Empty
			// because a post-reversal pipe is primed with DATA-IDLE.
			sent := r.selectOutput(&p.flow, out, word.Word{})
			if !sent.IsEmpty() {
				r.bLinks[p.bp].Send(sent)
			}
			//metrovet:nonexhaustive only TURN and DROP alter connection state here; data flows through
			switch sent.Kind {
			case word.Turn:
				r.flip(cycle, fp, fpReversed)
			case word.Drop:
				r.release(cycle, fp)
			}

		case fpReversed:
			out := r.shiftPipe(&p.flow)
			sent := r.selectOutput(&p.flow, out, word.Word{Kind: word.DataIdle})
			r.fin[fp].Send(sent)
			// Hold the downstream half of the connection open.
			if p.state == fpReversed {
				r.bLinks[p.bp].Send(word.Word{Kind: word.DataIdle})
			}
			//metrovet:nonexhaustive only TURN and DROP alter connection state here; data flows through
			switch sent.Kind {
			case word.Turn:
				r.flip(cycle, fp, fpForward)
			case word.Drop:
				r.release(cycle, fp)
			}

		case fpBlockedReply:
			if p.qHead < p.qLen {
				w := r.replyWord(p)
				p.qHead++
				r.fin[fp].Send(w)
				if w.Kind == word.Drop {
					r.emit(cycle, telemetry.EvConnReleased, fp, -1)
					p.reset(fpIdle)
				}
			}

		case fpDrain:
			if p.bcbOut {
				r.fin[fp].SendBCB(true)
			}
		}
		if p.state != fpIdle {
			live |= m & -m
		}
	}
	r.live = live
}

// replyWord returns word qHead of blocked port p's detailed reply:
// STATUS(blocked), the checksum words of what the port swallowed, then
// DROP (qLen-1). The port ignores its input while it replies, so p.ck
// holds still and the reply needs no buffer.
func (r *Router) replyWord(p *fwdPort) word.Word {
	switch i := int(p.qHead); {
	case i == 0:
		return word.Word{Kind: word.Status, Payload: word.StatusBlocked & word.Mask(r.cfg.width)}
	case i < int(p.qLen)-1:
		return word.ChecksumChunk(p.ck.Sum(), i-1, r.cfg.width)
	default:
		return word.Word{Kind: word.Drop}
	}
}

// stageInject stages a STATUS word and the segment checksum as f's whole
// queue, discarding anything pending there.
func (r *Router) stageInject(f *flow, status word.Word, sum uint8) {
	queue := r.queue(f)
	//metrovet:alloc capacity sized to the worst-case injection sequence in NewRouter
	seq := append(queue[:0], status)
	seq = word.AppendChecksum(seq, sum, r.cfg.width)
	if len(seq) > len(queue) {
		// append spilled to the heap: the region is the injWords bound.
		panic("core: injection sequence overflow — protocol bug")
	}
	f.qHead = 0
	//metrovet:truncate the panic above keeps the sequence within the region, injWords = 2 + ChecksumWords(width) <= 10 words at the 32-bit width Config.Validate allows
	f.qLen = uint8(len(seq))
}

// turnInPipe reports whether a TURN is still flowing through f's pipeline
// or queue (a reversal is in flight). Injected words are never TURN, so
// scanning them with the displaced ones changes nothing.
func (r *Router) turnInPipe(f *flow) bool {
	if f.pipeIn.Kind == word.Turn {
		return true
	}
	for _, w := range r.pipe(f) {
		if w.Kind == word.Turn {
			return true
		}
	}
	for _, w := range r.queue(f)[f.qHead:f.qLen] {
		if w.Kind == word.Turn {
			return true
		}
	}
	return false
}

// shiftPipe advances f's dp-stage pipeline by one cycle, inserting the
// staged input and returning the word leaving the pipe.
func (r *Router) shiftPipe(f *flow) word.Word {
	pipe := r.pipe(f)
	n := len(pipe)
	out := pipe[n-1]
	// dp is small (typically 1-2), so an explicit backward walk beats the
	// copy-call overhead in this per-port per-cycle path.
	for i := n - 1; i > 0; i-- {
		pipe[i] = pipe[i-1]
	}
	pipe[0] = f.pipeIn
	f.pipeIn = word.Word{}
	return out
}

// selectOutput picks the word f transmits this cycle: the queue's head
// (injected STATUS/CHECKSUM words, then the stream words they displaced)
// first, then the pipe output. A displaced pipe word joins the queue's
// tail; an absent word becomes idle fill so the connection stays open.
func (r *Router) selectOutput(f *flow, pipeOut, idle word.Word) word.Word {
	if f.qHead < f.qLen {
		w := r.queue(f)[f.qHead]
		f.qHead++
		r.buffer(f, pipeOut)
		return w
	}
	if pipeOut.IsEmpty() {
		return idle
	}
	return pipeOut
}

func (r *Router) buffer(f *flow, w word.Word) {
	if w.IsEmpty() {
		return
	}
	queue := r.queue(f)
	if int(f.qLen) == len(queue) {
		if f.qHead == 0 {
			// Full of pending words: the region is the injWords bound.
			panic("core: output elastic buffer overflow — protocol bug")
		}
		// Slide the pending words to the front so the store below stays
		// within the region.
		copy(queue, queue[f.qHead:f.qLen])
		f.qLen -= f.qHead
		f.qHead = 0
	}
	queue[f.qLen] = w
	f.qLen++
}

// flip completes a connection reversal at this router: the just-ended
// receive segment's status and checksum replace the queue, for injection
// into the new stream, and a fresh pipeline is started for the new
// direction.
func (r *Router) flip(cycle uint64, fp int, to fpState) {
	p := &r.fwd[fp]
	sum := p.ck.Sum()
	p.ck.Reset()
	r.stageInject(&p.flow, word.Word{Kind: word.Status, Payload: 0}, sum)
	if to == fpForward {
		// The downstream hop is an established connection: filling the
		// pipe with DATA-IDLE keeps the stream contiguous so the hop
		// never mistakes the reversal transient for a closed channel.
		pipe := r.pipe(&p.flow)
		for i := range pipe {
			pipe[i] = word.Word{Kind: word.DataIdle}
		}
	} else {
		clear(r.pipe(&p.flow))
	}
	p.pipeIn = word.Word{}
	p.revActive = false
	p.closing = false
	p.state = to
	towardSource := 0
	if to == fpReversed {
		towardSource = 1
	}
	r.emit(cycle, telemetry.EvConnTurned, fp, towardSource)
}

// detach moves forward port fp's connection tail to a detached closer and
// frees the port for new requests. The backward port stays busy (marked
// -2) until the closer's DROP has been transmitted downstream. The closer
// takes the port's flow by value, and with the backward port the buffer
// set holding the in-flight words; the port keeps none.
//
// A slot is always there to take. A closer exists only while its backward
// port is marked -2 and this port still holds its own, so at most
// Outputs-1 closers are in flight; were that ever wrong, the reslice past
// the capacity panics.
//
//metrovet:truncate fp is a forward port number, below MaxPorts = 64 by Config.Validate
func (r *Router) detach(cycle uint64, fp int) {
	p := &r.fwd[fp]
	if p.bp >= 0 {
		r.busyBy[p.bp] = -2
		n := len(r.closers)
		r.closers = r.closers[:n+1]
		r.closers[n] = closer{flow: p.flow, fp: int8(fp),
			deadline: r.dp + int(p.qLen-p.qHead) + 4}
		r.closers[n].pipeIn = word.Word{Kind: word.Drop}
	}
	p.reset(fpIdle)
}

// runClosers advances every detached connection flush, freeing backward
// ports as their DROPs go out, and keeps the rest in order.
func (r *Router) runClosers(cycle uint64) {
	kept := 0
	for i := range r.closers {
		c := &r.closers[i]
		out := r.shiftPipe(&c.flow)
		sent := r.selectOutput(&c.flow, out, word.Word{})
		if !sent.IsEmpty() {
			r.bLinks[c.bp].Send(sent)
		}
		c.deadline--
		if sent.Kind == word.Drop || c.deadline <= 0 {
			r.busyBy[c.bp] = -1
			r.emit(cycle, telemetry.EvConnReleased, int(c.fp), int(c.bp))
			continue
		}
		r.closers[kept] = *c
		kept++
	}
	r.closers = r.closers[:kept]
}

// release closes the connection on forward port fp after its DROP has been
// transmitted.
func (r *Router) release(cycle uint64, fp int) {
	p := &r.fwd[fp]
	bp := int(p.bp)
	r.freeBackward(fp)
	p.reset(fpIdle)
	r.emit(cycle, telemetry.EvConnReleased, fp, bp)
}

func (r *Router) freeBackward(fp int) {
	p := &r.fwd[fp]
	if p.bp >= 0 {
		r.busyBy[p.bp] = -1
		p.bp = -1
	}
}
