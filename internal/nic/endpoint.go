package nic

import (
	"fmt"

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

// logicalWidth returns the payload word width of the (possibly cascaded)
// logical channel.
func (c *Config) logicalWidth() int { return c.Width * c.Lanes }

// Shape is what the endpoints of a network have in common: their Config,
// validated and with its defaults applied, and the checksum group sizes it
// fixes. Every endpoint built from a Shape points at it rather than holding
// a copy, as the routers of a stage share a core.Shape; a Shape is never
// written once made.
type Shape struct {
	Config
	// An end-to-end checksum is ckLogical words (sized to the logical
	// channel), a router-injected status checksum ckPhysical (sized to the
	// component width). Receivers and reply parsers need them per word.
	ckLogical  int
	ckPhysical int
}

// NewShape validates cfg, once for every endpoint built from the shape.
func NewShape(cfg Config) (*Shape, error) {
	cfg = cfg.withDefaults()
	if cfg.Width < 1 || cfg.Width > 32 {
		return nil, fmt.Errorf("nic: width %d outside [1,32]", cfg.Width)
	}
	if lw := cfg.logicalWidth(); lw > 32 {
		return nil, fmt.Errorf("nic: cascaded width %d x %d lanes exceeds 32 bits", cfg.Width, cfg.Lanes)
	}
	if err := cfg.Header.Validate(); err != nil {
		return nil, err
	}
	if cfg.AppendRouteDigits == nil {
		return nil, fmt.Errorf("nic: AppendRouteDigits is required")
	}
	return &Shape{
		Config:     cfg,
		ckLogical:  word.ChecksumWords(cfg.logicalWidth()),
		ckPhysical: word.ChecksumWords(cfg.Width),
	}, nil
}

// NewEndpoint constructs endpoint id of the shape's network. Links are
// attached afterward.
func (sh *Shape) NewEndpoint(id int) *Endpoint {
	return &Endpoint{cfg: sh, id: id}
}

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
	id        int
	tel       *telemetry.Buf // message-lifecycle events; nil while unobserved
	senders   []sender
	receivers []receiver
	queue     []*pending
	qHead     int        // next queued message; the backing array is reused
	free      []*pending // recycled bookkeeping records for future Offers
	nextSend  int

	// Per-build scratch, reused so steady-state builds never allocate. A
	// sender builds a message's stream when it begins its first attempt,
	// one sender at a time within Eval, so the senders share it.
	digits    []int       // route digits
	laneBuf   []word.Word // one lane's projection of the stream (Lanes > 1)
	ckScratch []word.Word // working copy for expected-checksum stripping
}

// pending is a message queued for (re)transmission together with its
// accumulated attempt telemetry.
type pending struct {
	msg Message
	res Result

	// Cached attempt stream: a retry retransmits the identical words (the
	// routers' stochastic output selection is what varies the path, not the
	// source's stream), so the header build, payload packing and expected
	// per-stage checksums happen once per message rather than once per
	// attempt. The buffers recycle with the record through the freelist.
	built    bool
	words    []word.Word
	expected []uint8 // lane-major: lane l, stage s at l*stages+s
	sentCRC  uint8
	stages   int
}

// AttachInject adds an injection link: the upstream ends of its Lanes
// parallel lanes, lane 0 carrying the least significant bits. The endpoint
// keeps the slice.
//
//metrovet:mutator network construction wiring, before the clock starts
func (e *Endpoint) AttachInject(ends ...*link.End) {
	e.senders = append(e.senders, sender{e: e, link: e.channel(ends)})
}

// AttachDeliver adds a delivery link: the downstream ends of its lanes, as
// AttachInject takes them.
//
//metrovet:mutator network construction wiring, before the clock starts
func (e *Endpoint) AttachDeliver(ends ...*link.End) {
	e.receivers = append(e.receivers, receiver{e: e, link: e.channel(ends)})
}

// channel checks that ends is one logical channel of the endpoint's shape.
func (e *Endpoint) channel(ends []*link.End) lanes {
	if len(ends) != e.cfg.Lanes {
		panic(fmt.Sprintf("nic: endpoint %d attached a channel of %d lanes, want %d", e.id, len(ends), e.cfg.Lanes))
	}
	return ends
}

// Ends visits every link end the endpoint holds: its injection lanes, then
// its delivery lanes, each channel's in lane order.
func (e *Endpoint) Ends(f func(*link.End)) {
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
func (e *Endpoint) ID() int { return e.id }

// SetTelemetry attaches (or, with nil, removes) the message-lifecycle
// event buffer.
//
//metrovet:mutator network construction wiring, before the clock starts
func (e *Endpoint) SetTelemetry(b *telemetry.Buf) { e.tel = b }

// emit records one message-lifecycle event; a and b are kind-specific (see
// the telemetry.EvMsg* constants). It runs during Eval (and from Offer for
// EvMsgQueued), must not allocate in steady state, and costs one branch
// when no buffer is attached.
//
//metrovet:truncate a and b are attempt and retry counts, a stage (-1 when unknown), an endpoint index or a 0/1 flag, all far below 2^31
func (e *Endpoint) emit(cycle uint64, kind telemetry.Kind, id uint64, a, b int) {
	if e.tel != nil {
		e.tel.Emit(telemetry.Event{
			Cycle: cycle, Msg: id, Src: telemetry.EndpointSource(e.id),
			Kind: kind, A: int32(a), B: int32(b),
		})
	}
}

// Offer enqueues a message for delivery.
//
//metrovet:mutator traffic injection between cycles; drivers call this before Step
//metrovet:alloc per-message queue bookkeeping at injection, amortized by the message rather than the cycle
func (e *Endpoint) Offer(msg Message) {
	p := e.newPending()
	p.msg = msg
	p.res = Result{Msg: msg, LastBlockedStage: -1, SuspectStage: -1}
	e.queue = append(e.queue, p)
	e.emit(msg.Created, telemetry.EvMsgQueued, msg.ID, msg.Dest, 0)
}

// newPending pops a recycled bookkeeping record, or allocates the first
// time a queue depth is reached.
//
//metrovet:alloc grows the record pool to the peak in-flight count, then recycles
func (e *Endpoint) newPending() *pending {
	if n := len(e.free); n > 0 {
		p := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return p
	}
	return new(pending)
}

// QueueLen reports messages waiting for an injection link.
func (e *Endpoint) QueueLen() int { return len(e.queue) - e.qHead }

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
	for e.qHead < len(e.queue) && active < max {
		s := e.idleSender()
		if s == nil {
			break
		}
		p := e.queue[e.qHead]
		e.queue[e.qHead] = nil // release the reference; the array is reused
		e.qHead++
		s.begin(cycle, p)
		active++
	}
	if e.qHead == len(e.queue) {
		// Drained: rewind so future Offers reuse the backing array.
		e.queue = e.queue[:0]
		e.qHead = 0
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

// retry requeues a message at the head of the queue. A retried message was
// popped earlier, so the freed slot before qHead is normally available and
// the requeue is allocation-free.
func (e *Endpoint) retry(p *pending) {
	if e.qHead > 0 {
		e.qHead--
		e.queue[e.qHead] = p
		return
	}
	//metrovet:alloc front-insert fallback; grows only when no popped slot has been freed
	e.queue = append(e.queue, nil)
	copy(e.queue[1:], e.queue)
	e.queue[0] = p
}

func (e *Endpoint) finish(p *pending, delivered bool, cycle uint64) {
	p.res.Delivered = delivered
	if p.res.Done == 0 {
		p.res.Done = cycle
	}
	kind := telemetry.EvMsgFailed
	if delivered {
		kind = telemetry.EvMsgDelivered
	}
	e.emit(p.res.Done, kind, p.msg.ID, p.res.Retries, p.msg.Dest)
	if e.cfg.OnResult != nil {
		e.cfg.OnResult(e.id, p.res)
	}
	// Recycle the record: Result was handed out by value, so dropping the
	// payload and reply references here cannot disturb the receiver. The
	// stream buffers stay with the record for the next message.
	words, expected := p.words, p.expected
	*p = pending{}
	p.words = words[:0]
	p.expected = expected[:0]
	//metrovet:alloc freelist push; bounded by the peak in-flight count
	e.free = append(e.free, p)
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
// receives with word.MergeWords; its BCB is the OR of the lanes', so any
// member tearing a connection down (a consistency kill included) aborts the
// logical connection. The lanes are called in lane order, and RecvBCB stops
// at the first asserted one, so a stateful corruptor sees a fixed sequence
// of calls.
type lanes []*link.End

// Send stages w on every lane; width is the physical width of one lane.
func (l lanes) Send(w word.Word, width int) {
	if len(l) == 1 {
		l[0].Send(w)
		return
	}
	for k, end := range l {
		end.Send(word.MemberWord(w, k, width))
	}
}

// Recv returns the logical word arriving this cycle. A lockstep violation
// (lanes of differing kinds) merges to Empty, which the endpoint protocol
// treats as a failed connection; the consistency kill will have asserted
// BCB in the same breath.
func (l lanes) Recv(width int) word.Word {
	if len(l) == 1 {
		return l[0].Recv()
	}
	var buf [32]word.Word // NewShape bounds Width*Lanes, so Lanes, by 32
	members := buf[:len(l)]
	for k, end := range l {
		members[k] = end.Recv()
	}
	return word.MergeWords(members, width)
}

// RecvBCB reports whether any lane's BCB is asserted.
func (l lanes) RecvBCB() bool {
	for _, end := range l {
		if end.RecvBCB() {
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

	// p is the message in flight; while dropping, the one afterDrop
	// applies to (nil for dropNone).
	p     *pending
	idx   int
	parse parser

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
	s.parse.reset()
	s.state = sSending
	if p.res.Injected == 0 && p.res.Retries == 0 {
		p.res.Injected = cycle
	}
	s.e.emit(cycle, telemetry.EvMsgAttempt, p.msg.ID, p.res.Retries+1, 0)
}

// build constructs the message's attempt stream into the pending record.
// Payload words are packed at the logical channel width; routing words
// were already sized to the physical component width by the HeaderSpec and
// are replicated across lanes as they are sent. Every buffer involved is
// record- or endpoint-owned scratch, so a warmed endpoint builds messages
// without touching the heap.
//
//metrovet:alloc scratch buffers grow to the message size once, then recycle across messages
//metrovet:width logicalWidth = Width*Lanes is validated into [1,32] by NewShape
func (s *sender) build(p *pending) {
	e, cfg := s.e, s.e.cfg
	lw := cfg.logicalWidth()
	e.digits = cfg.AppendRouteDigits(e.digits[:0], p.msg.Dest)
	p.stages = len(e.digits)
	// The stream is header, packed payload, checksum and TURN: sized once
	// when the record's buffer is short, never grown word by word.
	if n := cfg.Header.Words() + PackedWords(len(p.msg.Payload), lw) + word.ChecksumWords(lw) + 1; cap(p.words) < n {
		p.words = make([]word.Word, 0, n)
	}
	words := cfg.Header.AppendBuild(p.words[:0], e.digits)
	headerLen := len(words)
	words = AppendPackBytes(words, p.msg.Payload, lw)
	var ck word.Checksum
	for _, w := range words[headerLen:] {
		ck.Add(w)
	}
	p.sentCRC = ck.Sum()
	words = word.AppendChecksum(words, p.sentCRC, lw)
	p.words = append(words, word.Word{Kind: word.Turn})
	// Expected per-stage checksums, one run of stages per lane: each
	// routing component checksums the slice of the stream its lane carries.
	p.expected = p.expected[:0]
	for lane := 0; lane < cfg.Lanes; lane++ {
		laneStream := p.words
		if cfg.Lanes > 1 {
			e.laneBuf = appendLaneSlice(e.laneBuf[:0], p.words, lane, cfg.Width)
			laneStream = e.laneBuf
		}
		p.expected, e.ckScratch = cfg.Header.AppendExpectedStageChecksums(p.expected, laneStream, e.ckScratch)
	}
}

// appendLaneSlice projects a logical word stream onto one cascade lane
// (word.MemberWord, word by word): exactly what the lane's routing
// component receives. The projection appends to dst, which is returned.
//
//metrovet:alloc appends into caller-owned scratch; steady state reuses capacity
func appendLaneSlice(dst []word.Word, stream []word.Word, lane, width int) []word.Word {
	for _, w := range stream {
		dst = append(dst, word.MemberWord(w, lane, width))
	}
	return dst
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
		s.link.Send(word.Word{Kind: word.Drop}, s.e.cfg.Width)
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
			s.e.emit(cycle, telemetry.EvMsgBlockedFast, s.p.msg.ID, 0, 0)
			s.retryOrFail(cycle)
			s.link.Send(word.Word{Kind: word.Drop}, s.e.cfg.Width)
			s.state = sCooldown
			s.cooldown = s.e.cfg.CloseGap
			return
		}
		s.link.Send(s.p.words[s.idx], s.e.cfg.Width)
		s.idx++
		if s.idx == len(s.p.words) {
			s.state = sListening
			s.listenStart = cycle
			s.e.emit(cycle, telemetry.EvMsgTurnSent, s.p.msg.ID, s.p.res.Retries+1, 0)
		}
		return

	case sListening:
		// Hold the connection open while receiving.
		s.link.Send(word.Word{Kind: word.DataIdle}, s.e.cfg.Width)
		if s.link.RecvBCB() {
			s.p.res.BlockedFast++
			s.e.emit(cycle, telemetry.EvMsgBlockedFast, s.p.msg.ID, 0, 0)
			s.abortNow(cycle)
			return
		}
		w := s.link.Recv(s.e.cfg.Width)
		s.parse.feed(s.e.cfg, w)
		switch {
		case s.parse.done:
			s.complete(cycle)
		case s.parse.closed:
			// Detailed blocked reply (or far-end close): retry.
			stage := s.parse.blockedStage(s.e.cfg)
			s.p.res.BlockedDetailed++
			s.p.res.LastBlockedStage = stage
			s.e.emit(cycle, telemetry.EvMsgBlockedDetailed, s.p.msg.ID, stage, 0)
			p := s.p
			s.p = nil
			s.retryOrFailPending(p, cycle)
			s.state = sCooldown
			s.cooldown = s.e.cfg.CloseGap
		case s.parse.failed:
			s.p.res.ChecksumFailures++
			s.e.emit(cycle, telemetry.EvMsgChecksumFail, s.p.msg.ID, 0, 0)
			s.abortNow(cycle)
		case cycle-s.listenStart > s.e.cfg.ListenTimeout:
			s.p.res.Timeouts++
			s.e.emit(cycle, telemetry.EvMsgTimeout, s.p.msg.ID, 0, 0)
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
	// Fault localization: first stage whose reported checksum (any lane)
	// disagrees with the expected value for that lane's slice.
	c := s.e.cfg.Lanes
	stages := min(s.parse.stageCount(s.e.cfg), p.stages)
localize:
	for stage := 0; stage < stages; stage++ {
		for lane := 0; lane < c; lane++ {
			if s.parse.routerCks[stage*c+lane] != p.expected[lane*p.stages+stage] {
				p.res.SuspectStage = stage
				break localize
			}
		}
	}
	nack := s.parse.destStatus&word.StatusNack != 0
	e2eOK := s.parse.destCk == p.sentCRC
	replyOK := true
	if s.parse.gotReplyCk {
		var ck word.Checksum
		for _, w := range s.parse.reply {
			ck.Add(w)
		}
		replyOK = ck.Sum() == s.parse.replyCk
	}
	delivered := !nack && e2eOK && replyOK
	p.res.Done = cycle
	// Close the connection; p stays in flight until the DROP is out.
	s.state = sDropping
	if delivered {
		p.res.Reply = UnpackBytes(s.parse.reply, s.e.cfg.logicalWidth())
		s.afterDrop = dropFinish
	} else {
		p.res.ChecksumFailures++
		s.e.emit(cycle, telemetry.EvMsgChecksumFail, p.msg.ID, 0, 0)
		s.afterDrop = dropRetry
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
	s.e.emit(cycle, telemetry.EvMsgRetried, p.msg.ID, p.res.Retries, 0)
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
	// words; e2e joins them as they arrive, ckWords counting them.
	ckWords uint8
	e2e     uint8
	intact  bool

	payload []word.Word

	reply      []word.Word
	replyIdx   int
	replyDelay int
}

// reset returns the receiver to rIdle while preserving the assembled-word
// and reply buffers, which are reused across messages.
func (r *receiver) reset() {
	r.state = rIdle
	r.payload = r.payload[:0]
	r.ckWords = 0
	r.e2e = 0
	r.reply = r.reply[:0]
	r.replyIdx = 0
	r.replyDelay = 0
	r.intact = false
}

// eval advances the receiver's per-cycle state machine.
func (r *receiver) eval(cycle uint64) {
	w := r.link.Recv(r.e.cfg.Width)
	switch r.state {
	case rIdle:
		switch w.Kind {
		case word.Data, word.ChecksumWord, word.Turn:
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
			r.link.Send(word.Word{Kind: word.DataIdle}, r.e.cfg.Width)
			return
		}
		r.link.Send(r.reply[r.replyIdx], r.e.cfg.Width)
		r.replyIdx++
		if r.replyIdx == len(r.reply) {
			r.state = rClosing
		}

	case rClosing:
		r.link.Send(word.Word{Kind: word.DataIdle}, r.e.cfg.Width)
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
//metrovet:width logicalWidth is validated into [1,32] by NewShape, and ckWords < ckLogical = ChecksumWords(logicalWidth) keeps the shift below 8, where word.JoinChecksum places the same chunk
//metrovet:truncate e2e keeps the low byte of the joined value, as word.JoinChecksum does
func (r *receiver) assemble(w word.Word, cycle uint64) {
	switch w.Kind {
	case word.Data:
		//metrovet:alloc buffer reused across messages; grows only until the largest message size
		r.payload = append(r.payload, w)
	case word.ChecksumWord:
		if int(r.ckWords) < r.e.cfg.ckLogical {
			lw := r.e.cfg.logicalWidth()
			r.e2e |= uint8((w.Payload & word.Mask(lw)) << (int(r.ckWords) * lw))
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

// turn handles the reversal request: verify the message and transmit the
// reply (status, checksum of what we received, optional responder payload,
// and a TURN handing the channel back).
//
//metrovet:alloc per-message reply construction, not a per-cycle path
//metrovet:width logicalWidth is validated into [1,32] by NewShape
func (r *receiver) turn(cycle uint64) {
	var ck word.Checksum
	for _, w := range r.payload {
		ck.Add(w)
	}
	computed := ck.Sum()
	intact := int(r.ckWords) == r.e.cfg.ckLogical && computed == r.e2e
	arrived := 0
	if intact {
		arrived = 1
	}
	r.e.emit(cycle, telemetry.EvMsgArrived, 0, arrived, 0)
	flags := word.StatusDest
	if !intact {
		flags |= word.StatusNack
	}
	width := r.e.cfg.logicalWidth()
	// The reply buffer is reused across messages (reset re-slices it).
	reply := append(r.reply[:0], word.Word{Kind: word.Status, Payload: flags & word.Mask(width)})
	reply = word.AppendChecksum(reply, computed, width)
	if intact && r.e.cfg.Responder != nil {
		data := r.e.cfg.Responder(r.e.id, UnpackBytes(r.payload, width))
		if len(data) > 0 {
			dw := PackBytes(data, width)
			var rck word.Checksum
			for _, w := range dw {
				rck.Add(w)
			}
			reply = append(reply, dw...)
			reply = word.AppendChecksum(reply, rck.Sum(), width)
		}
	}
	reply = append(reply, word.Word{Kind: word.Turn})
	r.reply = reply
	r.replyIdx = 0
	r.replyDelay = 0
	if intact && r.e.cfg.ResponderDelay != nil {
		r.replyDelay = r.e.cfg.ResponderDelay(r.e.id, UnpackBytes(r.payload, width))
	}
	r.state = rReply
	r.intact = intact
}

func (r *receiver) deliver() {
	if r.e.cfg.OnDeliver != nil {
		r.e.cfg.OnDeliver(r.e.id, UnpackBytes(r.payload, r.e.cfg.logicalWidth()), r.intact)
	}
}
