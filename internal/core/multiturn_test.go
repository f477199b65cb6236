package core_test

import (
	"testing"

	"metro/internal/word"
)

// TestMultipleReversals exercises the paper's guarantee that a connection
// may be reversed any number of times: the source and destination exchange
// two request/reply rounds over one connection (four reversals) before the
// source closes it. At every reversal the router injects a STATUS +
// CHECKSUM pair toward the new receiver.
func TestMultipleReversals(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 31)

	// Scripted endpoints: nil entries mean "hold with DATA-IDLE".
	turn := word.Word{Kind: word.Turn}
	srcScript := map[int]word.Word{
		0: word.MakeRoute(1, 2),
		1: word.MakeData(0x1, mustWidth(4)),
		2: turn, // reversal 1: listen for reply A
		// reply A takes ~6 cycles to come back; then round 2:
		14: word.MakeData(0x2, mustWidth(4)),
		15: turn, // reversal 3: listen for reply B
		30: {Kind: word.Drop},
	}
	var srcGot, dstGot []word.Word
	replied := 0
	var pendingReply []word.Word

	for i := 0; i < 44; i++ {
		// Source side.
		if w, ok := srcScript[i]; ok {
			h.src[0].Send(w)
		} else {
			h.src[0].Send(word.Word{Kind: word.DataIdle})
		}
		if w := h.src[0].Recv(); !w.IsEmpty() && w.Kind != word.DataIdle {
			srcGot = append(srcGot, w)
		}
		// Destination side: on each TURN, reply with one data word and
		// hand the channel back.
		dw := h.dst[1].Recv()
		if !dw.IsEmpty() && dw.Kind != word.DataIdle {
			dstGot = append(dstGot, dw)
		}
		if dw.Kind == word.Turn {
			replied++
			pendingReply = []word.Word{word.MakeData(uint32(0xA+replied), mustWidth(4)), turn}
		}
		if len(pendingReply) > 0 {
			h.dst[1].Send(pendingReply[0])
			pendingReply = pendingReply[1:]
		} else {
			h.dst[1].Send(word.Word{Kind: word.DataIdle})
		}
		h.run()
	}

	// The destination must have seen: data 1, TURN, (status+cksum toward
	// it), data 2, TURN, (status+cksum), DROP.
	var dstData []uint32
	turns, drops := 0, 0
	for _, w := range dstGot {
		switch w.Kind {
		case word.Data:
			dstData = append(dstData, w.Payload)
		case word.Turn:
			turns++
		case word.Drop:
			drops++
		}
	}
	if len(dstData) != 2 || dstData[0] != 0x1 || dstData[1] != 0x2 {
		t.Fatalf("destination data = %#v, want [1 2]; full stream %v", dstData, dstGot)
	}
	if turns != 2 {
		t.Fatalf("destination saw %d TURNs, want 2", turns)
	}
	if drops != 1 {
		t.Fatalf("destination saw %d DROPs, want 1", drops)
	}

	// The source must have received both replies (0xB then 0xC) with a
	// status+checksum pair before each.
	var srcData []uint32
	statuses := 0
	for _, w := range srcGot {
		switch w.Kind {
		case word.Data:
			srcData = append(srcData, w.Payload)
		case word.Status:
			statuses++
		}
	}
	if len(srcData) != 2 || srcData[0] != 0xB || srcData[1] != 0xC {
		t.Fatalf("source replies = %#v, want [0xB 0xC]; full stream %v", srcData, srcGot)
	}
	if statuses != 2 {
		t.Fatalf("source saw %d router status words, want one per reversal toward it (2)", statuses)
	}
	// Connection fully closed.
	if h.r.ConnectionCount() != 0 {
		t.Fatalf("connection not closed after multi-turn exchange")
	}
}

// TestReversalStatusEveryTime verifies a status/checksum pair is injected
// at every reversal, in both directions, across three rounds.
func TestReversalStatusEveryTime(t *testing.T) {
	cfg := cfg4x4()
	h := newHarness(cfg, dil1Settings(cfg), 33)

	turn := word.Word{Kind: word.Turn}
	srcTurns := map[int]bool{2: true, 16: true, 30: true}
	statusToSrc, statusToDst := 0, 0
	var pendingReply []word.Word

	for i := 0; i < 44; i++ {
		switch {
		case i == 0:
			h.src[0].Send(word.MakeRoute(0, 2))
		case i == 1:
			h.src[0].Send(word.MakeData(9, mustWidth(4)))
		case srcTurns[i]:
			h.src[0].Send(turn)
		case i == 42:
			h.src[0].Send(word.Word{Kind: word.Drop})
		default:
			h.src[0].Send(word.Word{Kind: word.DataIdle})
		}
		if w := h.src[0].Recv(); w.Kind == word.Status {
			statusToSrc++
		}
		dw := h.dst[0].Recv()
		if dw.Kind == word.Status {
			statusToDst++
		}
		if dw.Kind == word.Turn {
			pendingReply = []word.Word{word.MakeData(5, mustWidth(4)), turn}
		}
		if len(pendingReply) > 0 {
			h.dst[0].Send(pendingReply[0])
			pendingReply = pendingReply[1:]
		} else {
			h.dst[0].Send(word.Word{Kind: word.DataIdle})
		}
		h.run()
	}
	// Three forward->reverse reversals inject status toward the source;
	// the turn-backs inject toward the destination.
	if statusToSrc != 3 {
		t.Fatalf("statuses toward source = %d, want 3", statusToSrc)
	}
	if statusToDst < 2 {
		t.Fatalf("statuses toward destination = %d, want >= 2", statusToDst)
	}
}
