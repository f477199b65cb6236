package nic

import (
	"fmt"
	"sync"

	"metro/internal/link"
	"metro/internal/telemetry"
	"metro/internal/word"
)

// Config parameterizes the network interfaces of a network's endpoints.
// They share one, through a Shape.
type Config struct {
	// Width is the physical channel width w of one routing component.
	Width int
	// Lanes is the width-cascade factor c: the number of parallel
	// components each logical channel spans (default 1). Payload words
	// are Width*Lanes bits; routing and control words are replicated
	// across lanes (paper, Section 5.1, Router Width Cascading).
	Lanes int
	// Header describes the per-stage routing header consumption.
	Header HeaderSpec
	// AppendRouteDigits maps a destination endpoint to per-stage
	// directions, appending them to dst and returning it (append-shaped
	// so the sender's steady-state build stays off the heap). Required.
	AppendRouteDigits func(dst []int, dest int) []int
	// MaxActiveSenders bounds concurrently transmitting injection links
	// (Figure 3 restricts each endpoint to one; 0 means no limit).
	MaxActiveSenders int
	// RetryLimit bounds connection attempts per message before the
	// message is reported undeliverable.
	RetryLimit int
	// ListenTimeout is the watchdog on reply arrival, in cycles.
	ListenTimeout uint64
	// CloseGap is how many cycles an injection link stays quiet after a
	// DROP before carrying a new ROUTE, so the request never chases the
	// DROP into a router that has not yet released (>= max dp + 2).
	CloseGap int
	// Responder, when set, produces a reply payload for each message
	// endpoint ep receives (destination side), enabling request-reply
	// transactions over a single reversed connection.
	Responder func(ep int, payload []byte) []byte
	// ResponderDelay, when set, returns how many cycles destination ep
	// needs before its reply data is ready (e.g. a memory access vs a
	// cache hit). The endpoint holds the reversed connection open with
	// DATA-IDLE words for that long — the paper's first DATA-IDLE use
	// case (Section 5.1).
	ResponderDelay func(ep int, payload []byte) int
	// OnResult receives the final fate of each message endpoint ep
	// sourced.
	OnResult func(ep int, r Result)
	// OnDeliver is invoked when endpoint ep receives a message
	// (destination side).
	OnDeliver func(ep int, payload []byte, intact bool)
}

func (c Config) withDefaults() Config {
	if c.Lanes <= 0 {
		c.Lanes = 1
	}
	if c.RetryLimit == 0 {
		c.RetryLimit = 64
	}
	if c.ListenTimeout == 0 {
		c.ListenTimeout = 1000
	}
	if c.CloseGap == 0 {
		c.CloseGap = 4
	}
	return c
}

// Shape is what the endpoints of a network have in common: their Config,
// validated and with its defaults applied, the checksum group sizes it
// fixes, the pool of message records their Offers draw from and their
// settle flags. Every endpoint built from a Shape points at it rather than
// holding a copy, as the routers of a stage share a core.Shape. Only the
// pool (serially) and the flags are written once the endpoints are made.
type Shape struct {
	Config
	// width is the physical channel width of one lane, Config.Width;
	// logical is the payload word width of the (possibly cascaded) logical
	// channel, Width*Lanes.
	width, logical word.Width
	// carved is how many bytes of chunk Settle has handed out. It sits in
	// what was padding after the widths.
	carved uint16
	// An end-to-end checksum is ckLogical words (sized to the logical
	// channel), a router-injected status checksum ckPhysical (sized to the
	// component width). Receivers and reply parsers need them per word.
	ckLogical  int
	ckPhysical int
	// free heads the pool of idle message records, linked through
	// pending.next. It sits in what was the struct's padding, so the pool
	// costs a network no bytes beyond the records themselves.
	free *pending
	// unsettled[id] is set by endpoint id's Eval, on any engine lane, when
	// it parks a record or holds a delivery, and cleared by its Settle.
	unsettled []bool
	// chunk is the block Settle carves delivered payloads from (carve);
	// nil until the first delivery.
	chunk *[payloadChunk]byte
}

// payloadChunk is the size of the chunks delivered payloads are carved
// from: one allocation serves many small deliveries, and a job of few
// deliveries pays no more bytes than one allocation each would cost. It
// must be a power of two (carve masks offsets with it).
const payloadChunk = 1024

// NewShape validates cfg, once for every endpoint built from the shape.
func NewShape(cfg Config) (*Shape, error) {
	cfg = cfg.withDefaults()
	width, err := word.NewWidth(cfg.Width)
	if err != nil {
		return nil, fmt.Errorf("nic: %w", err)
	}
	logical, err := word.NewWidth(cfg.Width * cfg.Lanes)
	if err != nil {
		return nil, fmt.Errorf("nic: cascaded width %d x %d lanes exceeds 32 bits", cfg.Width, cfg.Lanes)
	}
	if err := cfg.Header.Validate(width); err != nil {
		return nil, err
	}
	if cfg.AppendRouteDigits == nil {
		return nil, fmt.Errorf("nic: AppendRouteDigits is required")
	}
	return &Shape{
		Config:     cfg,
		width:      width,
		logical:    logical,
		ckLogical:  word.ChecksumWords(logical),
		ckPhysical: word.ChecksumWords(width),
	}, nil
}

// MessageWords returns the number of channel words a message of
// payloadBytes occupies: routing header, packed payload, end-to-end
// checksum and TURN.
func (sh *Shape) MessageWords(payloadBytes int) int {
	return sh.Header.Words(sh.width) + PackedWords(payloadBytes, sh.logical) + sh.ckLogical + 1
}

// NewEndpoint constructs endpoint id of the shape's network. Links are
// attached afterward. The id is narrowed to its event source here, once:
// topo.Validate keeps a buildable network's endpoint count within int32.
func (sh *Shape) NewEndpoint(id int) *Endpoint {
	for len(sh.unsettled) <= id {
		sh.unsettled = append(sh.unsettled, false)
	}
	return &Endpoint{cfg: sh, src: telemetry.EndpointSource(id)}
}

// Unsettled reports, indexed by endpoint ID, which endpoints hold work for
// Settle. Callers read it only, serially, between steps or in the
// serialized epilogue.
func (sh *Shape) Unsettled() []bool { return sh.unsettled }

// New constructs a hand-wired endpoint: a network of one that makes its
// own Shape.
func New(id int, cfg Config) (*Endpoint, error) {
	sh, err := NewShape(cfg)
	if err != nil {
		return nil, err
	}
	return sh.NewEndpoint(id), nil
}

// Endpoint is a network endpoint: a message source driving one or more
// injection links and a destination served by one or more delivery links.
// It implements clock.Component.
type Endpoint struct {
	cfg       *Shape
	src       telemetry.Source // the endpoint's identity; src.Index is its ID
	tel       *telemetry.Buf   // message-lifecycle events; nil while unobserved
	senders   []sender
	receivers []receiver
	queue     *pending // queued messages' records, head first, linked through next
	queueTail *pending // the last of them while queue is not nil
	queued    int      // how many
	parked    *pending // finished messages' records, in finish order, linked through next, until Settle
	nextSend  int
}

// pending is a message's record while it is queued, in flight or finished
// and not yet settled: the message, its accumulated attempt telemetry and
// everything its attempts build or parse. Records, and the buffers in them,
// recycle through the network's pool, so this state scales with the
// messages in flight rather than with the endpoints.
type pending struct {
	res Result // res.Msg is the message

	// Cached attempt stream: a retry retransmits the identical words (the
	// routers' stochastic output selection is what varies the path, not the
	// source's stream), so the header build, payload packing and expected
	// per-stage checksums happen once per message rather than once per
	// attempt.
	built    bool
	sentCRC  uint8
	words    []word.Word
	expected []uint8 // lane-major: lane l, stage s at l*len(Header.Stages)+s
	digits   []int   // the route digits the header is built from

	parse parser // the current attempt's reply

	next *pending // the next queued, parked or pooled record; nil in flight
}

// AttachInject adds an injection link: the upstream ends of its Lanes
// parallel lanes, lane 0 carrying the least significant bits. The endpoint
// keeps the slice, so a builder can carve many channels' ends from one
// array.
func (e *Endpoint) AttachInject(ends ...link.End) {
	e.senders = append(e.senders, sender{e: e, link: e.channel(ends)})
}

// AttachDeliver adds a delivery link: the downstream ends of its lanes, as
// AttachInject takes them.
func (e *Endpoint) AttachDeliver(ends ...link.End) {
	e.receivers = append(e.receivers, receiver{e: e, link: e.channel(ends)})
}

// channel checks that ends is one logical channel of the endpoint's shape.
func (e *Endpoint) channel(ends []link.End) lanes {
	if len(ends) != e.cfg.Lanes {
		panic(fmt.Sprintf("nic: endpoint %d attached a channel of %d lanes, want %d", e.ID(), len(ends), e.cfg.Lanes))
	}
	return ends
}

// Ends visits every link end the endpoint holds: its injection lanes, then
// its delivery lanes, each channel's in lane order.
func (e *Endpoint) Ends(f func(link.End)) {
	ss, rs := e.senders, e.receivers
	for i := range ss {
		for _, end := range ss[i].link {
			f(end)
		}
	}
	for i := range rs {
		for _, end := range rs[i].link {
			f(end)
		}
	}
}

// ID returns the endpoint number.
func (e *Endpoint) ID() int { return int(e.src.Index) }

// SetTelemetry attaches (or, with nil, removes) the message-lifecycle
// event buffer.
func (e *Endpoint) SetTelemetry(b *telemetry.Buf) { e.tel = b }

// emit records one message-lifecycle event; a and b are kind-specific (see
// the telemetry.EvMsg* constants). It runs during Eval (and from Offer for
// EvMsgQueued), must not allocate in steady state, and costs one branch
// when no buffer is attached.
//
//metrovet:truncate a and b are a stage (-1 when unknown), a 0/1 flag, an endpoint index, which topo.Validate keeps within int32, or an attempt or retry count, which ends one past RetryLimit
func (e *Endpoint) emit(cycle uint64, kind telemetry.Kind, id uint64, a, b int) {
	if e.tel != nil {
		e.tel.Emit(telemetry.Event{
			Cycle: cycle, Msg: id, Src: e.src,
			Kind: kind, A: int32(a), B: int32(b),
		})
	}
}

// Offer enqueues a message for delivery. It settles the endpoint first, so
// its finished records are in the pool it takes from. Like Settle, it must
// not run concurrently with another Offer or Settle on the same Shape.
func (e *Endpoint) Offer(msg Message) {
	e.Settle()
	p := e.cfg.newPending()
	p.res = Result{Msg: msg, LastBlockedStage: -1, SuspectStage: -1}
	if e.queue == nil {
		e.queue = p
	} else {
		e.queueTail.next = p
	}
	e.queueTail = p
	e.queued++
	e.emit(msg.Created, telemetry.EvMsgQueued, msg.ID, msg.Dest, 0)
}

// newPending takes a record from the pool, or, when every record the
// network has made is queued, in flight or parked, one a released network
// gave back (spareRecords), or else allocates one.
//
//metrovet:alloc grows the network's records to its peak in-flight count, then recycles
func (sh *Shape) newPending() *pending {
	p := sh.free
	if p == nil {
		if p, _ = spareRecords.Get().(*pending); p == nil {
			return new(pending)
		}
		// A chain: keep its head, give the rest back.
		if p.next != nil {
			spareRecords.Put(p.next)
		}
	} else {
		sh.free = p.next
	}
	p.next = nil
	return p
}

// spareRecords and spareWords hold what released networks gave back (see
// Shape.Release): chains of idle message records, linked through next, and
// receivers' assembly buffers. They are sync.Pools so the collector empties
// them, and an idle process keeps none of it live.
var spareRecords, spareWords sync.Pool

// wordBufs is the unit spareWords holds: empty assembly buffers, for
// receivers to take one at a time.
type wordBufs struct{ bufs [][]word.Word }

// Release gives the shape's idle message records, and the assembly buffer
// of every idle receiver of eps, to the package's spares, where the next
// network's newPending and receivers find them before they allocate. A
// record in flight, queued or parked, and a receiver holding a message,
// keeps what it has. The endpoints remain usable: they allocate again.
// Like Settle, Release must not run concurrently with a step.
func (sh *Shape) Release(eps []*Endpoint) {
	if sh.free != nil {
		spareRecords.Put(sh.free)
		sh.free = nil
	}
	var b *wordBufs
	for _, e := range eps {
		rs := e.receivers
		for i := range rs {
			r := &rs[i]
			if r.state != rIdle || r.delivered || cap(r.words) == 0 {
				continue
			}
			if b == nil {
				if b, _ = spareWords.Get().(*wordBufs); b == nil {
					b = new(wordBufs)
				}
			}
			b.bufs = append(b.bufs, r.words[:0])
			r.words = nil
		}
	}
	if b != nil {
		spareWords.Put(b)
	}
}

// Settle hands what the endpoint finished to the hooks, in the order Eval
// finished it: each delivery link's closed message to OnDeliver, in link
// order, then each finished message's Result to OnResult, its record
// returning to the Shape's pool once the callback returns. Eval, on any
// engine lane, only parks records and flags deliveries on its own
// endpoint; the hooks and the pool are the network's, so Settle runs
// serially after each step: netsim's collector or a hand-wired harness
// settles every endpoint, and Offer settles its own first (so a hook that
// offers from another flagged endpoint settles that one early).
func (e *Endpoint) Settle() {
	cfg := e.cfg
	if !cfg.unsettled[e.ID()] {
		return
	}
	cfg.unsettled[e.ID()] = false
	rs := e.receivers
	for i := range rs {
		if r := &rs[i]; r.delivered {
			r.delivered = false
			cfg.OnDeliver(e.ID(), cfg.carve(r.words[:r.data]), r.intact)
		}
	}
	for e.parked != nil {
		p := e.parked
		e.parked = p.next
		if cfg.OnResult != nil {
			cfg.OnResult(e.ID(), p.res)
		}
		// Result went out by value; the buffers stay for the next message.
		*p = pending{
			words: p.words[:0], expected: p.expected[:0], digits: p.digits[:0],
			parse: parser{reply: p.parse.reply[:0]}, next: cfg.free,
		}
		cfg.free = p
	}
}

// carve unpacks a delivered payload into the next bytes of the shape's
// chunk and returns them with their capacity capped, so they are the
// callee's alone: an append reallocates rather than writing into the next
// delivery's bytes. A payload that does not fit starts a new chunk, and
// one larger than a chunk gets an allocation of its own. An empty payload
// is nil, as UnpackBytes returns it.
//
//metrovet:alloc one chunk per payloadChunk bytes delivered, in the serialized Settle
func (sh *Shape) carve(words []word.Word) []byte {
	n := len(words) * sh.logical.Bits() / 8
	switch {
	case n == 0:
		return nil
	case n > payloadChunk:
		return appendUnpackBytes(make([]byte, 0, n), words, sh.logical)
	case sh.chunk == nil || n > payloadChunk-int(sh.carved):
		sh.chunk, sh.carved = new([payloadChunk]byte), 0
	}
	// The payload fits, so fewer than payloadChunk bytes are carved and
	// the masks are identities that show the bounds.
	lo := int(sh.carved) & (payloadChunk - 1)
	p := appendUnpackBytes(sh.chunk[lo:lo], words, sh.logical)
	sh.carved = uint16((lo + len(p)) & (2*payloadChunk - 1))
	return p[:len(p):len(p)]
}

// Parked reports how many finished messages' records the endpoint holds
// until its next Settle.
func (e *Endpoint) Parked() int { return chainLen(e.parked) }

// Pooled reports how many idle message records the Shape's pool holds.
func (sh *Shape) Pooled() int { return chainLen(sh.free) }

func chainLen(p *pending) int {
	n := 0
	for ; p != nil; p = p.next {
		n++
	}
	return n
}

// QueueLen reports messages waiting for an injection link.
func (e *Endpoint) QueueLen() int { return e.queued }

// Busy reports whether any sender is mid-message.
func (e *Endpoint) Busy() bool {
	for i := range e.senders {
		if s := &e.senders[i]; s.state != sIdle && s.state != sCooldown {
			return true
		}
	}
	return false
}

// Receiving reports whether any delivery link has a connection in
// progress.
func (e *Endpoint) Receiving() bool {
	for i := range e.receivers {
		if e.receivers[i].state != rIdle {
			return true
		}
	}
	return false
}

// Eval implements clock.Component.
func (e *Endpoint) Eval(cycle uint64) {
	rs := e.receivers
	for i := range rs {
		rs[i].eval(cycle)
	}
	active := 0
	for i := range e.senders {
		if s := &e.senders[i]; s.state != sIdle && s.state != sCooldown {
			active++
		}
	}
	// Assign queued messages to idle senders, rotating so retries spread
	// across the endpoint's injection links.
	max := e.cfg.MaxActiveSenders
	if max <= 0 {
		max = len(e.senders)
	}
	for e.queue != nil && active < max {
		s := e.idleSender()
		if s == nil {
			break
		}
		p := e.queue
		e.queue, p.next = p.next, nil
		e.queued--
		s.begin(cycle, p)
		active++
	}
	ss := e.senders
	for i := range ss {
		ss[i].eval(cycle)
	}
}

// idleSender returns the next idle sender in rotation, or nil.
func (e *Endpoint) idleSender() *sender {
	n := len(e.senders)
	for i := 0; i < n; i++ {
		s := &e.senders[(e.nextSend+i)%n]
		if s.state == sIdle {
			e.nextSend = (e.nextSend + i + 1) % n
			return s
		}
	}
	return nil
}

// retry requeues a message at the head of the queue.
func (e *Endpoint) retry(p *pending) {
	if e.queue == nil {
		e.queueTail = p
	}
	e.queue, p.next = p, e.queue
	e.queued++
}

// finish parks a message's record, its Result complete, behind any the
// endpoint finished before it; Settle reports it and returns it to the pool.
func (e *Endpoint) finish(p *pending, delivered bool, cycle uint64) {
	p.res.Delivered = delivered
	if p.res.Done == 0 {
		p.res.Done = cycle
	}
	kind := telemetry.EvMsgFailed
	if delivered {
		kind = telemetry.EvMsgDelivered
	}
	e.emit(p.res.Done, kind, p.res.Msg.ID, p.res.Retries, p.res.Msg.Dest)
	tail := &e.parked
	for *tail != nil {
		tail = &(*tail).next
	}
	*tail = p
	e.cfg.unsettled[e.ID()] = true
}

// --- sender -----------------------------------------------------------

type sState uint8

const (
	sIdle sState = iota
	sSending
	sListening
	sDropping // transmit a DROP this cycle, then cool down
	sCooldown
)

var sStateNames = [...]string{
	sIdle:      "IDLE",
	sSending:   "SENDING",
	sListening: "LISTENING",
	sDropping:  "DROPPING",
	sCooldown:  "COOLDOWN",
}

// String returns the state mnemonic for logs and test failures.
func (s sState) String() string {
	if int(s) < len(sStateNames) {
		return sStateNames[s]
	}
	return fmt.Sprintf("sState(%d)", uint8(s))
}

// dropAction is the disposition a sender applies once its DROP word is on
// the wire: nothing (the fast-blocked paths dispose inline), finish the
// dropped message as delivered, or send it around the retry loop.
type dropAction uint8

const (
	dropNone dropAction = iota
	dropFinish
	dropRetry
)

// lanes is one logical channel: its lanes' link ends, lane 0 carrying the
// least significant bits (paper, Section 5.1, Router Width Cascading). A
// single lane is the channel itself, its words passed through unchanged. A
// cascade splits each word it sends with word.MemberWord and merges what it
// receives as word.MergeWords does; its BCB is the OR of the lanes', so any
// member tearing a connection down (a consistency kill included) aborts the
// logical connection. The lanes are called in lane order, and RecvBCB stops
// at the first asserted one, so a stateful corruptor sees a fixed sequence
// of calls.
type lanes []link.End

// Send stages w on every lane; width is the physical width of one lane.
func (l lanes) Send(w word.Word, width word.Width) {
	if len(l) == 1 {
		l[0].Send(w)
		return
	}
	for k := range l {
		l[k].Send(word.MemberWord(w, k, width))
	}
}

// Recv returns the logical word arriving this cycle, merged as it arrives
// exactly as word.MergeWords merges. A lockstep violation (lanes of
// differing kinds) merges to Empty, which the endpoint protocol treats as a
// failed connection; the consistency kill asserted BCB in the same breath.
func (l lanes) Recv(width word.Width) word.Word {
	if len(l) == 1 {
		return l[0].Recv()
	}
	var w word.Word
	var payload uint32
	agree := true
	for k := range l {
		m := l[k].Recv()
		if k == 0 {
			w = m
		}
		agree = agree && m.Kind == w.Kind
		// & 31 is the identity (k*width < Width*Lanes <= 32) that shows the bound.
		payload |= (m.Payload & word.Mask(width)) << (k * width.Bits() & 31)
	}
	if !agree {
		return word.Word{}
	}
	switch w.Kind {
	case word.Data, word.ChecksumWord:
		return word.Word{Kind: w.Kind, Payload: payload}
	case word.Empty, word.Route, word.HeaderPad, word.DataIdle, word.Turn, word.Status, word.Drop:
		return w // replicated control word: every lane carries lane 0's
	default:
		panic("nic: out-of-band word kind on a cascaded channel")
	}
}

// RecvBCB reports whether any lane's BCB is asserted.
func (l lanes) RecvBCB() bool {
	for k := range l {
		if l[k].RecvBCB() {
			return true
		}
	}
	return false
}

type sender struct {
	e         *Endpoint
	link      lanes
	state     sState
	afterDrop dropAction // disposition applied to p once the DROP is out

	// p is the message in flight, its record holding the attempt's parse;
	// while dropping, the one afterDrop applies to (nil for dropNone).
	p   *pending
	idx int

	listenStart uint64
	cooldown    int
}

// begin starts a transmission attempt for p, building the attempt stream
// on the first attempt and replaying the cached one on retries.
func (s *sender) begin(cycle uint64, p *pending) {
	s.p = p
	if !p.built {
		s.build(p)
		p.built = true
	}
	s.idx = 0
	p.parse.reset()
	s.state = sSending
	if p.res.Injected == 0 && p.res.Retries == 0 {
		p.res.Injected = cycle
	}
	s.e.emit(cycle, telemetry.EvMsgAttempt, p.res.Msg.ID, p.res.Retries+1, 0)
}

// build constructs the message's attempt stream into the pending record.
// Payload words are packed at the logical channel width; routing words
// were already sized to the physical component width by the HeaderSpec and
// are replicated across lanes as they are sent. Every buffer involved is
// the record's, so a record from the pool builds messages without touching
// the heap.
//
//metrovet:alloc record buffers grow to the message size once, then recycle with the record
func (s *sender) build(p *pending) {
	cfg := s.e.cfg
	lw := cfg.logical
	p.digits = cfg.AppendRouteDigits(p.digits[:0], p.res.Msg.Dest)
	// The stream is sized once when the record's buffer is short, never
	// grown word by word.
	if n := cfg.MessageWords(len(p.res.Msg.Payload)); cap(p.words) < n {
		p.words = make([]word.Word, 0, n)
	}
	words := cfg.Header.AppendBuild(p.words[:0], cfg.width, p.digits)
	headerLen := len(words)
	words = AppendPackBytes(words, p.res.Msg.Payload, lw)
	var ck word.Checksum
	for _, w := range words[headerLen:] {
		ck.Add(w)
	}
	p.sentCRC = ck.Sum()
	words = word.AppendChecksum(words, p.sentCRC, lw)
	p.words = append(words, word.Word{Kind: word.Turn})
	p.expected = cfg.Header.AppendExpectedStageChecksums(p.expected[:0], p.words, cfg.Lanes, cfg.width)
}

// eval advances the sender's per-cycle state machine.
func (s *sender) eval(cycle uint64) {
	switch s.state {
	case sIdle:
		return

	case sCooldown:
		s.cooldown--
		if s.cooldown <= 0 {
			s.state = sIdle
		}
		return

	case sDropping:
		s.link.Send(word.Word{Kind: word.Drop}, s.e.cfg.width)
		s.state = sCooldown
		s.cooldown = s.e.cfg.CloseGap
		p := s.p
		s.p = nil
		switch s.afterDrop {
		case dropFinish:
			s.e.finish(p, true, cycle)
		case dropRetry:
			s.retryOrFailPending(p, cycle)
		case dropNone:
			// Disposition already applied when the drop was decided.
		}
		s.afterDrop = dropNone
		return

	case sSending:
		if s.link.RecvBCB() {
			s.p.res.BlockedFast++
			s.e.emit(cycle, telemetry.EvMsgBlockedFast, s.p.res.Msg.ID, 0, 0)
			s.retryOrFail(cycle)
			s.link.Send(word.Word{Kind: word.Drop}, s.e.cfg.width)
			s.state = sCooldown
			s.cooldown = s.e.cfg.CloseGap
			return
		}
		s.link.Send(s.p.words[s.idx], s.e.cfg.width)
		s.idx++
		if s.idx == len(s.p.words) {
			s.state = sListening
			s.listenStart = cycle
			s.e.emit(cycle, telemetry.EvMsgTurnSent, s.p.res.Msg.ID, s.p.res.Retries+1, 0)
		}
		return

	case sListening:
		// Hold the connection open while receiving.
		s.link.Send(word.Word{Kind: word.DataIdle}, s.e.cfg.width)
		if s.link.RecvBCB() {
			s.p.res.BlockedFast++
			s.e.emit(cycle, telemetry.EvMsgBlockedFast, s.p.res.Msg.ID, 0, 0)
			s.abortNow(cycle)
			return
		}
		w := s.link.Recv(s.e.cfg.width)
		s.p.parse.feed(s.e.cfg, s.p.expected, w)
		switch {
		case s.p.parse.done:
			s.complete(cycle)
		case s.p.parse.closed:
			// Detailed blocked reply (or far-end close): retry.
			stage := s.p.parse.blockedStage()
			s.p.res.BlockedDetailed++
			s.p.res.LastBlockedStage = stage
			s.p.localize()
			s.e.emit(cycle, telemetry.EvMsgBlockedDetailed, s.p.res.Msg.ID, stage, 0)
			p := s.p
			s.p = nil
			s.retryOrFailPending(p, cycle)
			s.state = sCooldown
			s.cooldown = s.e.cfg.CloseGap
		case s.p.parse.failed:
			s.p.res.ChecksumFailures++
			s.e.emit(cycle, telemetry.EvMsgChecksumFail, s.p.res.Msg.ID, 0, 0)
			s.abortNow(cycle)
		case cycle-s.listenStart > s.e.cfg.ListenTimeout:
			s.p.res.Timeouts++
			s.e.emit(cycle, telemetry.EvMsgTimeout, s.p.res.Msg.ID, 0, 0)
			s.abortNow(cycle)
		}
	}
}

// abortNow transmits a DROP next cycle and retries (or fails) the message.
func (s *sender) abortNow(cycle uint64) {
	s.state = sDropping
	s.afterDrop = dropNone
	s.retryOrFail(cycle)
}

// complete finishes a successful parse: verify checksums, close the
// connection, and report.
func (s *sender) complete(cycle uint64) {
	p := s.p
	pr := &p.parse
	p.localize()
	nack := pr.destStatus&word.StatusNack != 0
	e2eOK := pr.destCk == p.sentCRC
	replyOK := true
	if pr.gotReplyCk() {
		var ck word.Checksum
		for _, w := range pr.reply {
			ck.Add(w)
		}
		replyOK = ck.Sum() == pr.replyCk
	}
	delivered := !nack && e2eOK && replyOK
	p.res.Done = cycle
	// Close the connection; p stays in flight until the DROP is out.
	s.state = sDropping
	if delivered {
		p.res.Reply = UnpackBytes(pr.reply, s.e.cfg.logical)
		s.afterDrop = dropFinish
	} else {
		p.res.ChecksumFailures++
		s.e.emit(cycle, telemetry.EvMsgChecksumFail, p.res.Msg.ID, 0, 0)
		s.afterDrop = dropRetry
	}
}

// localize records the attempt's fault localization, which the parse
// checked on arrival of each stage's reports: a stage whose checksum
// disagreed becomes the result's SuspectStage, and an attempt whose stages
// all agreed leaves it as it was.
func (p *pending) localize() {
	if p.parse.suspect >= 0 {
		p.res.SuspectStage = p.parse.suspect
	}
}

func (s *sender) retryOrFail(cycle uint64) {
	p := s.p
	s.p = nil
	s.retryOrFailPending(p, cycle)
}

func (s *sender) retryOrFailPending(p *pending, cycle uint64) {
	p.res.Retries++
	if p.res.Retries > s.e.cfg.RetryLimit {
		s.e.finish(p, false, cycle)
		return
	}
	s.e.emit(cycle, telemetry.EvMsgRetried, p.res.Msg.ID, p.res.Retries, 0)
	s.e.retry(p)
}

// --- receiver ---------------------------------------------------------

type rState uint8

const (
	rIdle rState = iota
	rAssemble
	rReply
	rClosing
)

var rStateNames = [...]string{
	rIdle:     "IDLE",
	rAssemble: "ASSEMBLE",
	rReply:    "REPLY",
	rClosing:  "CLOSING",
}

// String returns the state mnemonic for logs and test failures.
func (s rState) String() string {
	if int(s) < len(rStateNames) {
		return rStateNames[s]
	}
	return fmt.Sprintf("rState(%d)", uint8(s))
}

type receiver struct {
	e     *Endpoint
	link  lanes
	state rState

	// The message's end-to-end checksum is its first ckLogical checksum
	// words; e2e joins them as they arrive, ckWords counting them, and sum
	// checksums the payload. replyCk is the responder's data's checksum.
	ckWords   uint8
	e2e       uint8
	sum       word.Checksum
	replyCk   uint8
	intact    bool
	delivered bool // a closed message waits for Settle to hand to OnDeliver

	// words holds what the hooks read, and only when one is set: the
	// payload, then, from data on, the responder's reply data.
	words []word.Word
	data  int

	replyIdx   int
	replyDelay int
}

// reset returns the receiver to rIdle, keeping what Settle has yet to take.
func (r *receiver) reset() { r.state = rIdle }

// start clears the per-message state as a message's first word arrives.
// A receiver whose hooks read the message and that has no buffer yet takes
// one a released network gave back.
func (r *receiver) start() {
	r.ckWords, r.e2e = 0, 0
	r.sum.Reset()
	if r.words == nil && r.e.cfg.readsMessages() {
		r.words = spareWordBuf()
	}
	r.words = r.words[:0]
}

// spareWordBuf takes one assembly buffer from spareWords, or returns nil.
// It runs inside Eval, on any engine lane; sync.Pool is safe for that, and
// two lanes asking at once just leave one of them to allocate. An emptied
// holder goes back too, for the next Release to fill.
func spareWordBuf() []word.Word {
	b, _ := spareWords.Get().(*wordBufs)
	if b == nil {
		return nil
	}
	var w []word.Word
	if bufs, n := b.bufs, len(b.bufs)-1; n >= 0 {
		w = bufs[n]
		bufs[n] = nil
		b.bufs = bufs[:n]
	}
	spareWords.Put(b)
	return w
}

// eval advances the receiver's per-cycle state machine.
func (r *receiver) eval(cycle uint64) {
	w := r.link.Recv(r.e.cfg.width)
	switch r.state {
	case rIdle:
		switch w.Kind {
		case word.Data, word.ChecksumWord, word.Turn:
			r.start()
			r.state = rAssemble
			r.assemble(w, cycle)
		case word.Empty, word.Route, word.HeaderPad, word.DataIdle,
			word.Status, word.Drop:
			// Idle channel, idle fill, and stray control words are ignored;
			// ROUTE and HeaderPad words were consumed by the routers.
		}

	case rAssemble:
		r.assemble(w, cycle)

	case rReply:
		if w.Kind == word.Drop {
			r.reset() // source abandoned the connection mid-reply
			return
		}
		if r.replyDelay > 0 {
			// Reply data not ready yet (memory access in flight): hold
			// the connection open with idle fill.
			r.replyDelay--
			r.link.Send(word.Word{Kind: word.DataIdle}, r.e.cfg.width)
			return
		}
		reply, last := r.replyWord(r.replyIdx)
		r.link.Send(reply, r.e.cfg.width)
		r.replyIdx++
		if last {
			r.state = rClosing
		}

	case rClosing:
		r.link.Send(word.Word{Kind: word.DataIdle}, r.e.cfg.width)
		switch w.Kind {
		case word.Drop, word.Empty:
			// Either an explicit close or the upstream going silent ends
			// the connection; the message was verified at the TURN, so
			// deliver it.
			r.deliver()
			r.reset()
		case word.Route, word.HeaderPad, word.Data, word.DataIdle, word.Turn,
			word.Status, word.ChecksumWord:
			// Residual stream words while the close propagates, and the
			// status and checksum a router injects toward us, are ignored.
		}
	}
}

// assemble accumulates the forward stream of one message.
//
//metrovet:truncate by design: e2e keeps the low byte of the joined value, as word.JoinChecksum does
func (r *receiver) assemble(w word.Word, cycle uint64) {
	switch w.Kind {
	case word.Data:
		r.sum.Add(w)
		if r.e.cfg.readsMessages() {
			//metrovet:alloc buffer reused across messages; grows only until the largest message size
			r.words = append(r.words, w)
		}
	case word.ChecksumWord:
		if int(r.ckWords) < r.e.cfg.ckLogical {
			lw := r.e.cfg.logical
			// ckWords < ChecksumWords(logical) keeps the shift below 8,
			// where word.JoinChecksum places the same chunk and & 7 is
			// the identity; the & 7 is what shows the shift its bound.
			r.e2e |= uint8((w.Payload & word.Mask(lw)) << (int(r.ckWords) * lw.Bits() & 7))
			r.ckWords++
		}
	case word.Turn:
		r.turn(cycle)
	case word.Drop:
		r.reset() // aborted before the turn; nothing to deliver
	case word.Empty:
		r.reset() // upstream vanished
	case word.Route, word.HeaderPad, word.DataIdle, word.Status:
		// Idle fill and stray control words are skipped.
	}
}

// turn handles the reversal request: verify the message and start the
// reply (status, checksum of what we received, optional responder payload,
// and a TURN handing the channel back; see replyWord).
func (r *receiver) turn(cycle uint64) {
	cfg := r.e.cfg
	intact := int(r.ckWords) == cfg.ckLogical && r.sum.Sum() == r.e2e
	arrived := 0
	if intact {
		arrived = 1
	}
	r.e.emit(cycle, telemetry.EvMsgArrived, 0, arrived, 0)
	r.data = len(r.words)
	if intact && cfg.Responder != nil {
		if data := cfg.Responder(r.e.ID(), UnpackBytes(r.words, cfg.logical)); len(data) > 0 {
			r.words = AppendPackBytes(r.words, data, cfg.logical)
			var ck word.Checksum
			for _, w := range r.words[r.data:] {
				ck.Add(w)
			}
			r.replyCk = ck.Sum()
		}
	}
	r.replyIdx = 0
	r.replyDelay = 0
	if intact && cfg.ResponderDelay != nil {
		r.replyDelay = cfg.ResponderDelay(r.e.ID(), UnpackBytes(r.words[:r.data], cfg.logical))
	}
	r.state = rReply
	r.intact = intact
}

// replyWord returns word i of the reply and whether it is the last: a
// STATUS (NACK unless the message arrived intact), the checksum of the
// payload received, the responder's data and its checksum when it gave
// any, and the TURN handing the channel back.
func (r *receiver) replyWord(i int) (w word.Word, last bool) {
	ck, width := r.e.cfg.ckLogical, r.e.cfg.logical
	if i == 0 {
		flags := word.StatusDest
		if !r.intact {
			flags |= word.StatusNack
		}
		return word.Word{Kind: word.Status, Payload: flags & word.Mask(width)}, false
	}
	if i--; i < ck {
		return word.ChecksumChunk(r.sum.Sum(), i, width), false
	}
	i -= ck
	if data := r.words[r.data:]; len(data) > 0 {
		if i < len(data) {
			return data[i], false
		}
		if i -= len(data); i < ck {
			return word.ChecksumChunk(r.replyCk, i, width), false
		}
	}
	return word.Word{Kind: word.Turn}, true
}

// readsMessages reports whether a hook reads what receivers assemble.
func (sh *Shape) readsMessages() bool {
	return sh.OnDeliver != nil || sh.Responder != nil || sh.ResponderDelay != nil
}

// deliver flags a closed message for Settle to hand to OnDeliver.
func (r *receiver) deliver() {
	if r.e.cfg.OnDeliver != nil {
		r.delivered = true
		r.e.cfg.unsettled[r.e.ID()] = true
	}
}
