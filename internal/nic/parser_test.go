package nic

import (
	"testing"

	"metro/internal/word"
)

// testParser is a parser with the shape its sender would feed it.
type testParser struct {
	parser
	sh *Shape
}

// parserFor returns a parser armed for a channel of the given component
// width and cascade factor.
func parserFor(width, lanes int) *testParser {
	sh, err := NewShape(Config{Width: width, Lanes: lanes,
		AppendRouteDigits: func(dst []int, _ int) []int { return dst }})
	if err != nil {
		panic(err)
	}
	p := &testParser{sh: sh}
	p.reset()
	return p
}

func (p *testParser) feedAll(ws ...word.Word) {
	for _, w := range ws {
		p.feed(p.sh, w)
	}
}

func statusWord(flags uint32) word.Word { return word.Word{Kind: word.Status, Payload: flags} }

func TestParserHappyPath(t *testing.T) {
	p := parserFor(8, 1)
	var ck word.Checksum
	ck.AddByte(0x11)
	p.feedAll(
		word.Word{Kind: word.DataIdle}, // idle fill is transparent
		statusWord(0),                  // router 0
		word.AppendChecksum(nil, 0xAA, mustWidth(8))[0],
		word.Word{Kind: word.DataIdle},
		statusWord(0), // router 1
		word.AppendChecksum(nil, 0xBB, mustWidth(8))[0],
		statusWord(word.StatusDest), // destination ack
		word.AppendChecksum(nil, 0xCC, mustWidth(8))[0],
		word.Word{Kind: word.Turn},
	)
	if !p.done || p.failed || p.closed {
		t.Fatalf("parser state: %+v", p)
	}
	if len(p.routerCks) != 2 || p.routerCks[0] != 0xAA || p.routerCks[1] != 0xBB {
		t.Fatalf("router checksums = %#x", p.routerCks)
	}
	if p.destCk != 0xCC {
		t.Fatalf("dest checksum = %#x", p.destCk)
	}
	if len(p.reply) != 0 {
		t.Fatalf("unexpected reply words: %v", p.reply)
	}
}

func TestParserWithReply(t *testing.T) {
	p := parserFor(8, 1)
	p.feedAll(
		statusWord(0),
		word.AppendChecksum(nil, 0x01, mustWidth(8))[0],
		statusWord(word.StatusDest),
		word.AppendChecksum(nil, 0x02, mustWidth(8))[0],
		word.MakeData(0x10, mustWidth(8)),
		word.MakeData(0x20, mustWidth(8)),
		word.AppendChecksum(nil, 0x7F, mustWidth(8))[0],
		word.Word{Kind: word.Turn},
	)
	if !p.done {
		t.Fatalf("parser not done: %+v", p)
	}
	if len(p.reply) != 2 || p.reply[0].Payload != 0x10 {
		t.Fatalf("reply = %v", p.reply)
	}
	if !p.gotReplyCk || p.replyCk != 0x7F {
		t.Fatalf("reply checksum = %#x (got=%v)", p.replyCk, p.gotReplyCk)
	}
}

func TestParserBlockedAtStage(t *testing.T) {
	p := parserFor(8, 1)
	p.feedAll(
		statusWord(0), // stage 0 fine
		word.AppendChecksum(nil, 0x11, mustWidth(8))[0],
		statusWord(word.StatusBlocked), // stage 1 blocked
		word.AppendChecksum(nil, 0x22, mustWidth(8))[0],
		word.Word{Kind: word.Drop},
	)
	if !p.closed {
		t.Fatalf("parser should be closed: %+v", p)
	}
	if p.blockedStage(p.sh) != 1 {
		t.Fatalf("blockedStage = %d, want 1", p.blockedStage(p.sh))
	}
	if p.done {
		t.Fatal("blocked parse must not be done")
	}
}

func TestParserNackRecorded(t *testing.T) {
	p := parserFor(8, 1)
	p.feedAll(
		statusWord(0),
		word.AppendChecksum(nil, 0, mustWidth(8))[0],
		statusWord(word.StatusDest|word.StatusNack),
		word.AppendChecksum(nil, 0, mustWidth(8))[0],
		word.Word{Kind: word.Turn},
	)
	if !p.done {
		t.Fatalf("parser not done: %+v", p)
	}
	if p.destStatus&word.StatusNack == 0 {
		t.Fatal("nack flag lost")
	}
}

func TestParserSplitChecksumWidth4(t *testing.T) {
	p := parserFor(4, 1)
	cks := word.AppendChecksum(nil, 0x5A, mustWidth(4))
	p.feedAll(statusWord(0))
	p.feedAll(cks...)
	if len(p.routerCks) != 1 || p.routerCks[0] != 0x5A {
		t.Fatalf("router cks = %#x", p.routerCks)
	}
}

func TestParserProtocolViolation(t *testing.T) {
	p := parserFor(8, 1)
	p.feedAll(word.MakeData(1, mustWidth(8))) // data before any status
	if !p.failed {
		t.Fatal("data before status should fail the parse")
	}
}

func TestParserDropAnywhereCloses(t *testing.T) {
	p := parserFor(8, 1)
	p.feedAll(statusWord(0), word.Word{Kind: word.Drop})
	if !p.closed {
		t.Fatal("drop should close the parse")
	}
}

func TestParserNoiseAfterBlockedIgnored(t *testing.T) {
	p := parserFor(8, 1)
	p.feedAll(
		statusWord(word.StatusBlocked),
		word.AppendChecksum(nil, 0x10, mustWidth(8))[0],
		word.MakeData(0xFF, mustWidth(8)), // garbage on a dying connection
		word.Word{Kind: word.Drop},
	)
	if p.failed {
		t.Fatal("noise after blocked status must not fail the parse")
	}
	if !p.closed {
		t.Fatal("drop should still close")
	}
}

// mustWidth returns the word.Width of n bits; the tests only ask for
// widths in [1, 32].
func mustWidth(n int) word.Width {
	w, err := word.NewWidth(n)
	if err != nil {
		panic(err)
	}
	return w
}
