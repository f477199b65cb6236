package nic

import (
	"testing"

	"metro/internal/word"
)

// testParser is a parser with the shape and expected router checksums its
// sender would feed it.
type testParser struct {
	parser
	sh       *Shape
	expected []uint8
}

// parserFor returns a parser armed for a channel of the given component
// width and cascade factor, behind len(expected)/lanes routing stages whose
// components should report expected (lane-major, as the sender lays it
// out).
func parserFor(width, lanes int, expected ...uint8) *testParser {
	stages := make([]StageHeader, len(expected)/lanes)
	for s := range stages {
		stages[s].DirBits = 1
	}
	sh, err := NewShape(Config{Width: width, Lanes: lanes, Header: HeaderSpec{Stages: stages},
		AppendRouteDigits: func(dst []int, _ int) []int { return dst }})
	if err != nil {
		panic(err)
	}
	p := &testParser{sh: sh, expected: expected}
	p.reset()
	return p
}

func (p *testParser) feedAll(ws ...word.Word) {
	for _, w := range ws {
		p.feed(p.sh, p.expected, w)
	}
}

func statusWord(flags uint32) word.Word { return word.Word{Kind: word.Status, Payload: flags} }

func TestParserHappyPath(t *testing.T) {
	reply := []word.Word{
		{Kind: word.DataIdle}, // idle fill is transparent
		statusWord(0),         // router 0
		word.AppendChecksum(nil, 0xAA, mustWidth(8))[0],
		{Kind: word.DataIdle},
		statusWord(0), // router 1
		word.AppendChecksum(nil, 0xBB, mustWidth(8))[0],
		statusWord(word.StatusDest), // destination ack
		word.AppendChecksum(nil, 0xCC, mustWidth(8))[0],
		{Kind: word.Turn},
	}
	p := parserFor(8, 1, 0xAA, 0xBB)
	p.feedAll(reply...)
	if !p.done || p.failed || p.closed {
		t.Fatalf("parser state: %+v", p)
	}
	if p.stages != 2 || p.suspect != -1 {
		t.Fatalf("%d router checksums, suspect stage %d; want 2 matching the expected 0xaa, 0xbb", p.stages, p.suspect)
	}
	if p.destCk != 0xCC {
		t.Fatalf("dest checksum = %#x", p.destCk)
	}
	if len(p.reply) != 0 {
		t.Fatalf("unexpected reply words: %v", p.reply)
	}
	// A router report that disagrees with its expected value is the
	// suspect; the first such stage wins.
	for _, tc := range []struct {
		expected []uint8
		suspect  int
	}{{[]uint8{0xAA, 0xBA}, 1}, {[]uint8{0xAB, 0xBA}, 0}} {
		p := parserFor(8, 1, tc.expected...)
		p.feedAll(reply...)
		if !p.done || p.suspect != tc.suspect {
			t.Errorf("expected %#x: done %v, suspect stage %d, want %d", tc.expected, p.done, p.suspect, tc.suspect)
		}
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
	if !p.gotReplyCk() || p.replyCk != 0x7F {
		t.Fatalf("reply checksum = %#x (got=%v)", p.replyCk, p.gotReplyCk())
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
	if p.blockedStage() != 1 {
		t.Fatalf("blockedStage = %d, want 1", p.blockedStage())
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
	cks := word.AppendChecksum(nil, 0x5A, mustWidth(4))
	// Either chunk of the two-word group can disagree.
	for _, tc := range []struct {
		expected uint8
		suspect  int
	}{{0x5A, -1}, {0x5B, 0}, {0x4A, 0}} {
		p := parserFor(4, 1, tc.expected)
		p.feedAll(statusWord(0))
		p.feedAll(cks...)
		if p.stages != 1 || p.suspect != tc.suspect {
			t.Errorf("0x5a reported, %#x expected: %d router groups, suspect stage %d, want 1 and %d", tc.expected, p.stages, p.suspect, tc.suspect)
		}
	}
}

// TestParserLaneChecksums: on a cascaded channel each merged checksum word
// carries every lane's chunk, and a disagreement on any lane of a stage
// makes it the suspect.
func TestParserLaneChecksums(t *testing.T) {
	w4 := mustWidth(4)
	// Two stages, two lanes of 4 bits; lane 0 reports 0x5A then 0x11, lane
	// 1 reports 0xC3 then 0x22.
	reported := [2][2]uint8{{0x5A, 0x11}, {0xC3, 0x22}}
	var words []word.Word
	for stage := 0; stage < 2; stage++ {
		words = append(words, statusWord(0))
		lane0 := word.AppendChecksum(nil, reported[0][stage], w4)
		lane1 := word.AppendChecksum(nil, reported[1][stage], w4)
		for k := range lane0 {
			words = append(words, word.MergeWords([]word.Word{lane0[k], lane1[k]}, w4))
		}
	}
	for _, tc := range []struct {
		expected []uint8 // lane-major
		suspect  int
	}{
		{[]uint8{0x5A, 0x11, 0xC3, 0x22}, -1},
		{[]uint8{0x5A, 0x11, 0xC3, 0x62}, 1},
		{[]uint8{0x5A, 0x11, 0xC2, 0x22}, 0},
		{[]uint8{0x5A, 0x10, 0xC3, 0x22}, 1},
	} {
		p := parserFor(4, 2, tc.expected...)
		p.feedAll(words...)
		if p.stages != 2 || p.suspect != tc.suspect {
			t.Errorf("expected %#x: %d router groups, suspect stage %d, want 2 and %d", tc.expected, p.stages, p.suspect, tc.suspect)
		}
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
