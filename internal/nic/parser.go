package nic

import "metro/internal/word"

// parser interprets the reversed-stream reply a source receives after its
// TURN: one STATUS+CHECKSUM pair per router stage (in path order), then the
// destination's STATUS+CHECKSUM, an optional reply payload with its own
// checksum, and the TURN handing the channel back. A blocked connection
// ends instead with the blocking router's STATUS(blocked), its checksum,
// and a DROP.
//
// The parser keeps no widths: the sender feeds it its endpoint's Shape,
// whose Width sizes the router checksum chunks (one per lane) and whose
// logical width the destination and reply checksums.
type parser struct {
	ckbuf []word.Word // the checksum group being collected

	// routerCks[stage*Lanes+lane] is the CRC-8 each lane's routing
	// component reported for that stage — flat with stride Lanes, so the
	// buffer recycles across attempts without per-stage allocations. On
	// an uncascaded channel Lanes == 1.
	routerCks []uint8

	reply []word.Word

	destStatus uint32
	phase      pPhase
	curBlocked bool
	destCk     uint8
	replyCk    uint8
	gotReplyCk bool

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

// reset rearms the parser for a new attempt while keeping the checksum,
// router-report and reply buffers, so a sender's steady-state retry loop
// never allocates.
func (p *parser) reset() {
	p.phase = pStatus
	p.ckbuf = p.ckbuf[:0]
	p.routerCks = p.routerCks[:0]
	p.curBlocked = false
	p.destStatus, p.destCk = 0, 0
	p.reply = p.reply[:0]
	p.replyCk, p.gotReplyCk = 0, false
	p.done, p.closed, p.failed = false, false, false
}

// stageCount returns how many router status groups have been parsed.
func (p *parser) stageCount(sh *Shape) int { return len(p.routerCks) / sh.Lanes }

// blockedStage returns the stage whose router reported the connection
// blocked, or -1. A blocked status' group is the last one parsed: the
// parser then only waits for the DROP.
func (p *parser) blockedStage(sh *Shape) int {
	if p.phase != pAwaitDrop {
		return -1
	}
	return p.stageCount(sh) - 1
}

// feed consumes one received word on a channel of shape sh. Empty and
// DataIdle are transparent everywhere (idle fill is inserted freely by
// routers).
func (p *parser) feed(sh *Shape, w word.Word) {
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

	case pRouterCk, pDestCk, pReplyCk:
		if w.Kind != word.ChecksumWord {
			p.failed = true
			return
		}
		//metrovet:alloc buffer reused across groups; bounded by the checksum word count
		p.ckbuf = append(p.ckbuf, w)
		// Router checksums are produced at the physical component width
		// (one group per lane, transmitted in lockstep), the others at the
		// logical width.
		need := sh.ckLogical
		if p.phase == pRouterCk {
			need = sh.ckPhysical
		}
		if len(p.ckbuf) < need {
			return
		}
		//metrovet:nonexhaustive only the three checksum-collection phases reach this switch
		switch p.phase {
		case pRouterCk:
			// Each lane's component reported its own CRC; the merged
			// stream interleaves the chunks lane-wise within each word.
			p.routerCks = appendLaneChecksums(p.routerCks, p.ckbuf, sh.width, sh.Lanes)
			if p.curBlocked {
				p.phase = pAwaitDrop
			} else {
				p.phase = pStatus
			}
		case pDestCk:
			p.destCk = word.JoinChecksum(p.ckbuf, sh.logical)
			p.phase = pReply
		case pReplyCk:
			p.replyCk = word.JoinChecksum(p.ckbuf, sh.logical)
			p.gotReplyCk = true
			p.phase = pAwaitTurn
		}

	case pReply:
		switch w.Kind {
		case word.Data:
			//metrovet:alloc buffer grows to the reply size, once per message
			p.reply = append(p.reply, w)
		case word.ChecksumWord:
			p.startCk(pReplyCk)
			p.feed(sh, w)
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
	p.ckbuf = p.ckbuf[:0]
}

// appendLaneChecksums reconstructs each lane's CRC-8 from the merged
// checksum words and appends them to dst: word k of the group carries lane
// m's k-th chunk in bit positions [m*width, (m+1)*width). The join mirrors
// word.JoinChecksum over the virtual per-lane chunk stream, without
// materializing it.
//
//metrovet:alloc appends into the recycled routerCks buffer; steady state reuses capacity
//metrovet:width lane < lanes, so lane*width.Bits() < Width*Lanes <= 32 (NewShape), and the break keeps shift below 8
//metrovet:truncate lane is a loop index and width.Bits() positive, so lane*width.Bits() and shift are nonnegative
func appendLaneChecksums(dst []uint8, merged []word.Word, width word.Width, lanes int) []uint8 {
	for lane := 0; lane < lanes; lane++ {
		var v uint32
		shift := 0
		for _, w := range merged {
			v |= ((w.Payload >> uint(lane*width.Bits())) & word.Mask(width)) << uint(shift)
			shift += width.Bits()
			if shift >= 8 {
				break
			}
		}
		dst = append(dst, uint8(v&0xff))
	}
	return dst
}
