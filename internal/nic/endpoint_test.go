package nic

import (
	"bytes"
	"reflect"
	"testing"

	"metro/internal/clock"
	"metro/internal/link"
	"metro/internal/telemetry"
	"metro/internal/word"
)

// loopback wires a source endpoint directly to a destination endpoint over
// one link with no routers: a zero-stage network. The header is empty and
// the reply parser expects the destination status immediately, which
// isolates the endpoint state machines from the router model.
type loopback struct {
	eng      *clock.Engine
	src, dst *Endpoint
	wire     *link.Link   // lane 0
	lanes    []*link.Link // one per cascade lane
	results  []Result
	delivers [][]byte
	intact   []bool
}

func newLoopback(t *testing.T, mutateSrc, mutateDst func(*Config)) *loopback {
	t.Helper()
	lb := &loopback{eng: clock.New()}
	srcCfg := Config{
		Width: 8,
		// No Header: zero routing stages.
		AppendRouteDigits: func(dst []int, dest int) []int { return dst },
		RetryLimit:        5,
		ListenTimeout:     100,
		CloseGap:          3,
		OnResult:          func(_ int, r Result) { lb.results = append(lb.results, r) },
	}
	dstCfg := srcCfg
	dstCfg.OnResult = nil
	dstCfg.OnDeliver = func(_ int, p []byte, ok bool) {
		lb.delivers = append(lb.delivers, append([]byte(nil), p...))
		lb.intact = append(lb.intact, ok)
	}
	if mutateSrc != nil {
		mutateSrc(&srcCfg)
	}
	if mutateDst != nil {
		mutateDst(&dstCfg)
	}
	var err error
	lb.src, err = New(0, srcCfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.dst, err = New(1, dstCfg)
	if err != nil {
		t.Fatal(err)
	}
	var inject, deliver []link.End
	for lane := 0; lane < max(srcCfg.Lanes, 1); lane++ {
		l := link.New("loop", 1)
		lb.lanes = append(lb.lanes, l)
		inject, deliver = append(inject, l.A()), append(deliver, l.B())
		lb.eng.AddLatch(l)
	}
	lb.wire = lb.lanes[0]
	lb.src.AttachInject(inject...)
	lb.dst.AttachDeliver(deliver...)
	lb.eng.Add(lb.src, lb.dst)
	return lb
}

// step advances one cycle and settles both endpoints, as a harness must
// after each step: their callbacks fire from Settle.
func (lb *loopback) step() {
	lb.eng.Step()
	lb.src.Settle()
	lb.dst.Settle()
}

func (lb *loopback) run(cycles int) {
	for i := 0; i < cycles; i++ {
		lb.step()
	}
}

func TestLoopbackDelivery(t *testing.T) {
	lb := newLoopback(t, nil, nil)
	lb.src.Offer(Message{ID: 1, Dest: 1, Payload: []byte("direct")})
	lb.run(60)
	if len(lb.results) != 1 || !lb.results[0].Delivered {
		t.Fatalf("results = %+v", lb.results)
	}
	if len(lb.delivers) != 1 || !bytes.Equal(lb.delivers[0], []byte("direct")) {
		t.Fatalf("delivers = %q", lb.delivers)
	}
	if !lb.intact[0] {
		t.Fatal("checksum flagged on a clean wire")
	}
}

func TestLoopbackRequestReply(t *testing.T) {
	lb := newLoopback(t, nil, func(c *Config) {
		c.Responder = func(_ int, p []byte) []byte { return append([]byte("re:"), p...) }
	})
	lb.src.Offer(Message{ID: 1, Dest: 1, Payload: []byte("q")})
	lb.run(80)
	if len(lb.results) != 1 || !lb.results[0].Delivered {
		t.Fatalf("results = %+v", lb.results)
	}
	if got := string(lb.results[0].Reply); got != "re:q" {
		t.Fatalf("reply = %q", got)
	}
}

func TestCorruptionNackAndRetry(t *testing.T) {
	// Corrupt the first two attempts' data; the destination NACKs, the
	// source retries, and the third attempt (wire healed) succeeds.
	attempts := 0
	lb := newLoopback(t, nil, nil)
	lb.wire.SetCorruptor(func(w word.Word) word.Word {
		if w.Kind == word.Data && attempts < 2 {
			w.Payload ^= 0x1
		}
		return w
	}, nil)
	// Count attempts by watching TURN words cross.
	lb.wire.SetCorruptor(func(w word.Word) word.Word {
		if w.Kind == word.Turn {
			attempts++
		}
		if w.Kind == word.Data && attempts < 2 {
			w.Payload ^= 0x1
		}
		return w
	}, nil)
	lb.src.Offer(Message{ID: 1, Dest: 1, Payload: []byte{0x10, 0x20}})
	lb.run(300)
	if len(lb.results) != 1 {
		t.Fatalf("results = %+v", lb.results)
	}
	r := lb.results[0]
	if !r.Delivered {
		t.Fatalf("never delivered: %+v", r)
	}
	if r.Retries < 1 || r.ChecksumFailures < 1 {
		t.Fatalf("corruption not recorded: %+v", r)
	}
}

func TestRetryLimitExhaustion(t *testing.T) {
	// Permanently corrupt the wire: every attempt NACKs until the retry
	// limit reports the message undeliverable.
	lb := newLoopback(t, func(c *Config) { c.RetryLimit = 3 }, nil)
	lb.wire.SetCorruptor(func(w word.Word) word.Word {
		if w.Kind == word.Data {
			w.Payload ^= 0x1
		}
		return w
	}, nil)
	lb.src.Offer(Message{ID: 1, Dest: 1, Payload: []byte{0xF0}})
	lb.run(600)
	if len(lb.results) != 1 {
		t.Fatalf("results = %+v", lb.results)
	}
	r := lb.results[0]
	if r.Delivered {
		t.Fatal("corrupted message reported delivered")
	}
	if r.Retries != 4 { // RetryLimit 3 allows 4 attempts total
		t.Fatalf("retries = %d, want 4", r.Retries)
	}
}

func TestWatchdogTimeoutOnDeadWire(t *testing.T) {
	lb := newLoopback(t, func(c *Config) {
		c.RetryLimit = 2
		c.ListenTimeout = 50
	}, nil)
	lb.wire.Kill()
	lb.src.Offer(Message{ID: 1, Dest: 1, Payload: []byte{1, 2, 3}})
	lb.run(1000)
	if len(lb.results) != 1 {
		t.Fatalf("results = %+v", lb.results)
	}
	r := lb.results[0]
	if r.Delivered {
		t.Fatal("dead wire delivered")
	}
	if r.Timeouts == 0 {
		t.Fatalf("watchdog never fired: %+v", r)
	}
}

func TestQueueDrainsInOrder(t *testing.T) {
	var order []uint64
	lb := newLoopback(t, func(c *Config) {
		c.OnResult = func(_ int, r Result) { order = append(order, r.Msg.ID) }
	}, nil)
	for i := 1; i <= 4; i++ {
		lb.src.Offer(Message{ID: uint64(i), Dest: 1, Payload: []byte{byte(i)}})
	}
	if lb.src.QueueLen() != 4 {
		t.Fatalf("queue = %d", lb.src.QueueLen())
	}
	lb.run(400)
	if len(order) != 4 {
		t.Fatalf("completed %d of 4", len(order))
	}
	for i, id := range order {
		if id != uint64(i+1) {
			t.Fatalf("completion order %v", order)
		}
	}
	if lb.src.Busy() || lb.src.QueueLen() != 0 {
		t.Fatal("endpoint not idle after drain")
	}
}

func TestReceivingReflectsActivity(t *testing.T) {
	lb := newLoopback(t, nil, nil)
	if lb.dst.Receiving() {
		t.Fatal("fresh endpoint should not be receiving")
	}
	lb.src.Offer(Message{ID: 1, Dest: 1, Payload: make([]byte, 16)})
	sawReceiving := false
	for i := 0; i < 80; i++ {
		lb.step()
		if lb.dst.Receiving() {
			sawReceiving = true
		}
	}
	if !sawReceiving {
		t.Fatal("receiver never reported activity")
	}
	if lb.dst.Receiving() {
		t.Fatal("receiver stuck active after close")
	}
}

func TestConfigValidationErrors(t *testing.T) {
	_, err := New(0, Config{Width: 8})
	if err == nil {
		t.Fatal("missing AppendRouteDigits accepted")
	}
	_, err = New(0, Config{
		Width:             8,
		Header:            HeaderSpec{Stages: []StageHeader{{DirBits: 9}}}, // 9 routing bits on an 8-bit channel
		AppendRouteDigits: func(dst []int, _ int) []int { return dst },
	})
	if err == nil {
		t.Fatal("invalid header accepted")
	}
}

func TestEmptyPayloadMessage(t *testing.T) {
	lb := newLoopback(t, nil, nil)
	lb.src.Offer(Message{ID: 1, Dest: 1, Payload: nil})
	lb.run(60)
	if len(lb.results) != 1 || !lb.results[0].Delivered {
		t.Fatalf("empty payload failed: %+v", lb.results)
	}
}

func TestLargeMessage(t *testing.T) {
	payload := make([]byte, 500)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	lb := newLoopback(t, nil, nil)
	lb.src.Offer(Message{ID: 1, Dest: 1, Payload: payload})
	lb.run(1200)
	if len(lb.results) != 1 || !lb.results[0].Delivered {
		t.Fatalf("large message failed: %+v", lb.results)
	}
	if !bytes.Equal(lb.delivers[0], payload) {
		t.Fatal("large payload corrupted")
	}
}

// TestAttemptStreamSizedOnce: a record's attempt stream (header, packed
// payload, checksum, TURN) is allocated at exactly its length the first
// time, reused by a message that fits, and re-sized exactly, once, for one
// that does not.
func TestAttemptStreamSizedOnce(t *testing.T) {
	header := HeaderSpec{Stages: []StageHeader{
		{DirBits: 2, HeaderWords: 0}, {DirBits: 3, HeaderWords: 0}, {DirBits: 2, HeaderWords: 2},
		{DirBits: 4, HeaderWords: 0}, {DirBits: 4, HeaderWords: 0},
	}}
	for _, lanes := range []int{1, 3} {
		e, err := New(0, Config{Width: 8, Lanes: lanes, Header: header,
			AppendRouteDigits: func(dst []int, dest int) []int { return append(dst, 1, 5, 2, 9, 3) }})
		if err != nil {
			t.Fatal(err)
		}
		s, p := &sender{e: e}, &pending{}
		build := func(size int) (length, capacity int) {
			p.res.Msg = Message{Dest: 1, Payload: make([]byte, size)}
			s.build(p)
			return len(p.words), cap(p.words)
		}
		if n, c := build(37); n != c {
			t.Errorf("lanes %d: first stream of %d words allocated with capacity %d", lanes, n, c)
		}
		first := cap(p.words)
		if _, c := build(12); c != first {
			t.Errorf("lanes %d: a shorter stream re-sized the buffer from %d to %d", lanes, first, c)
		}
		if n, c := build(90); n != c || c <= first {
			t.Errorf("lanes %d: a longer stream of %d words got capacity %d (was %d)", lanes, n, c, first)
		}
	}
}

func TestEndpointID(t *testing.T) {
	lb := newLoopback(t, nil, nil)
	if lb.src.ID() != 0 || lb.dst.ID() != 1 {
		t.Fatalf("IDs = %d/%d", lb.src.ID(), lb.dst.ID())
	}
}

func TestLaneSliceProjection(t *testing.T) {
	stream := []word.Word{
		word.MakeRoute(0b11, 2),
		{Kind: word.Data, Payload: 0xAB},
		{Kind: word.ChecksumWord, Payload: 0xCD},
		{Kind: word.Turn},
	}
	lane0 := appendLaneSlice(nil, stream, 0, mustWidth(4))
	lane1 := appendLaneSlice(nil, stream, 1, mustWidth(4))
	if lane0[0] != stream[0] || lane1[0] != stream[0] {
		t.Fatal("route word not replicated")
	}
	if lane0[1].Payload != 0xB || lane1[1].Payload != 0xA {
		t.Fatalf("data slices wrong: %v / %v", lane0[1], lane1[1])
	}
	if lane0[2].Payload != 0xD || lane1[2].Payload != 0xC {
		t.Fatalf("checksum slices wrong: %v / %v", lane0[2], lane1[2])
	}
	if lane0[3].Kind != word.Turn {
		t.Fatal("turn not replicated")
	}
	// Lane 0 at the full width is the stream itself.
	same := appendLaneSlice(nil, stream, 0, mustWidth(8))
	for i := range stream {
		if same[i] != stream[i] {
			t.Fatal("full-width lane 0 should be identity")
		}
	}
}

// TestEndpointEmitsMsgEvents reads one delivery's lifecycle back from a
// flushed recorder, source side and destination side, then detaches both
// buffers and checks a second delivery records nothing.
func TestEndpointEmitsMsgEvents(t *testing.T) {
	rec := telemetry.New(telemetry.Options{Capacity: 64})
	lb := newLoopback(t, nil, nil)
	lb.src.SetTelemetry(rec.NewBuf())
	lb.dst.SetTelemetry(rec.NewBuf())
	lb.eng.Add(telemetry.Flusher{R: rec})
	lb.src.Offer(Message{ID: 7, Dest: 1, Payload: []byte("direct")})
	lb.run(60)
	type key struct {
		src  telemetry.Source
		kind telemetry.Kind
	}
	counts := map[key]int{}
	for _, e := range rec.Snapshot().Events {
		counts[key{e.Src, e.Kind}]++
		if e.Kind != telemetry.EvMsgArrived && e.Msg != 7 {
			t.Errorf("%v: message id %d, want 7", e, e.Msg)
		}
	}
	src, dst := telemetry.EndpointSource(0), telemetry.EndpointSource(1)
	want := map[key]int{
		{src, telemetry.EvMsgQueued}:    1,
		{src, telemetry.EvMsgAttempt}:   1,
		{src, telemetry.EvMsgTurnSent}:  1,
		{src, telemetry.EvMsgDelivered}: 1,
		{dst, telemetry.EvMsgArrived}:   1,
	}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("events by source and kind = %v, want %v", counts, want)
	}

	lb.src.SetTelemetry(nil)
	lb.dst.SetTelemetry(nil)
	lb.src.Offer(Message{ID: 8, Dest: 1, Payload: []byte("unobserved")})
	lb.run(60)
	if len(lb.results) != 2 || !lb.results[1].Delivered {
		t.Fatalf("results = %+v", lb.results)
	}
	if got := rec.Total(); got != 5 {
		t.Fatalf("detached endpoints emitted: recorder total %d, want 5", got)
	}
}
