package nic

import "metro/internal/word"

// parser interprets the reversed-stream reply a source receives after its
// TURN: one STATUS+CHECKSUM pair per router stage (in path order), then the
// destination's STATUS+CHECKSUM, an optional reply payload with its own
// checksum, and the TURN handing the channel back. A blocked connection
// ends instead with the blocking router's STATUS(blocked), its checksum,
// and a DROP.
//
// It streams, joining checksum words and checking routers' reports against
// the expected checksums as they arrive, and rides the message's record.
// It keeps no widths: the sender feeds it its endpoint's Shape, whose Width
// sizes the router checksum chunks (one per lane) and whose logical width
// the destination and reply checksums.
type parser struct {
	reply []word.Word

	// stages counts the router status groups parsed; suspect is the first
	// stage whose report disagrees on any lane (-1 while none does), final
	// once the parse is done, which needs every group whole.
	stages     int
	suspect    int
	destStatus uint32
	// ck joins a destination or reply checksum; ckWords counts group words.
	ck         uint32
	ckWords    uint8
	phase      pPhase
	curBlocked bool
	destCk     uint8
	replyCk    uint8

	done   bool
	closed bool
	failed bool
}

type pPhase uint8

const (
	pStatus    pPhase = iota // awaiting a STATUS (router or destination)
	pRouterCk                // collecting a router status' checksum words
	pDestCk                  // collecting the destination's checksum words
	pReply                   // collecting reply payload
	pReplyCk                 // collecting the reply checksum words
	pAwaitTurn               // reply checksum done; expecting TURN
	pAwaitDrop               // blocked status seen; expecting DROP
)

// reset rearms the parser for a new attempt while keeping the reply
// buffer, so a sender's steady-state retry loop never allocates.
func (p *parser) reset() {
	*p = parser{reply: p.reply[:0], suspect: -1}
}

// gotReplyCk reports whether the reply carried a payload and its checksum:
// a parse that reached its TURN after the reply checksum is done in
// pAwaitTurn.
func (p *parser) gotReplyCk() bool { return p.phase == pAwaitTurn }

// blockedStage returns the stage whose router reported the connection
// blocked, or -1. A blocked status' group is the last one parsed: the
// parser then only waits for the DROP.
func (p *parser) blockedStage() int {
	if p.phase != pAwaitDrop {
		return -1
	}
	return p.stages - 1
}

// feed consumes one received word on a channel of shape sh, whose message
// expected the router checksums in expected (lane-major, as
// HeaderSpec.AppendExpectedStageChecksums lays them out). Empty and
// DataIdle are transparent everywhere (idle fill is inserted freely by
// routers).
func (p *parser) feed(sh *Shape, expected []uint8, w word.Word) {
	if p.done || p.closed || p.failed {
		return
	}
	//metrovet:nonexhaustive the remaining kinds fall through to the phase machine below
	switch w.Kind {
	case word.Empty, word.DataIdle:
		return
	case word.Drop:
		// Connection closed by the far side: expected after a blocked
		// status, an error anywhere else — either way the attempt is over.
		p.closed = true
		return
	}

	switch p.phase {
	case pStatus:
		if w.Kind != word.Status {
			p.failed = true
			return
		}
		if w.Payload&word.StatusDest != 0 {
			p.destStatus = w.Payload
			p.startCk(pDestCk)
			return
		}
		p.curBlocked = w.Payload&word.StatusBlocked != 0
		p.startCk(pRouterCk)

	case pRouterCk:
		if w.Kind != word.ChecksumWord {
			p.failed = true
			return
		}
		// Router checksums are produced at the physical component width,
		// one group per lane transmitted in lockstep: the merged word
		// interleaves the lanes' chunks.
		if n := len(sh.Header.Stages); p.suspect < 0 && p.stages < n &&
			laneChunksDiffer(w, int(p.ckWords), expected, p.stages, n, sh) {
			p.suspect = p.stages
		}
		if p.ckWords++; int(p.ckWords) < sh.ckPhysical {
			return
		}
		p.stages++
		if p.curBlocked {
			p.phase = pAwaitDrop
		} else {
			p.phase = pStatus
		}

	case pDestCk, pReplyCk:
		if w.Kind != word.ChecksumWord {
			p.failed = true
			return
		}
		// The destination and reply checksums are at the logical width,
		// joined as word.JoinChecksum joins them: ckWords < ckLogical keeps
		// the shift below 8, where & 7 is the identity.
		p.ck |= (w.Payload & word.Mask(sh.logical)) << (int(p.ckWords) * sh.logical.Bits() & 7)
		if p.ckWords++; int(p.ckWords) < sh.ckLogical {
			return
		}
		if p.phase == pDestCk {
			p.destCk = uint8(p.ck & 0xff)
			p.phase = pReply
		} else {
			p.replyCk = uint8(p.ck & 0xff)
			p.phase = pAwaitTurn
		}

	case pReply:
		switch w.Kind {
		case word.Data:
			//metrovet:alloc buffer grows to the reply size, once per record
			p.reply = append(p.reply, w)
		case word.ChecksumWord:
			p.startCk(pReplyCk)
			p.feed(sh, expected, w)
		case word.Turn:
			p.done = true
		case word.Empty, word.Route, word.HeaderPad, word.DataIdle,
			word.Status, word.Drop:
			// Empty, DataIdle and Drop were consumed above; Route, HeaderPad
			// or Status inside a reply is a protocol violation.
			p.failed = true
		}

	case pAwaitTurn:
		if w.Kind == word.Turn {
			p.done = true
		} else {
			p.failed = true
		}

	case pAwaitDrop:
		// Only a DROP (handled above) legitimately follows; anything else
		// is noise on a dying connection — ignore it.
	}
}

// startCk arms collection of the next checksum-word group.
func (p *parser) startCk(next pPhase) {
	p.phase = next
	p.ck, p.ckWords = 0, 0
}

// laneChunksDiffer reports whether word k of stage's router checksum group
// disagrees on any lane with expected (n stages a lane): lane m's chunk k
// is in bits [m*width, (m+1)*width) and holds CRC bits [k*width,
// (k+1)*width), those past bit 7 dropped, as word.JoinChecksum joins them.
// The & 7 and & 31 are identities (k*width < 8, lane*width < 32) that show
// the shifts' bounds.
func laneChunksDiffer(w word.Word, k int, expected []uint8, stage, n int, sh *Shape) bool {
	bits := sh.width.Bits()
	at := word.Mask(sh.width) << (k * bits & 7) & 0xff
	for lane := 0; lane < sh.Lanes; lane++ {
		chunk := (w.Payload >> (lane * bits & 31)) & word.Mask(sh.width)
		if (chunk<<(k*bits&7)^uint32(expected[lane*n+stage]))&at != 0 {
			return true
		}
	}
	return false
}
