package cascade

import (
	"metro/internal/link"
	"metro/internal/word"
)

// WideChannel presents c parallel physical link ends as one logical
// channel of width c*w: data payloads are bit-sliced across the lanes and
// control words are replicated, exactly as a width-cascaded router group
// expects. It satisfies nic.Channel.
//
// The BCB is the logical OR of the lanes' BCBs: any member tearing a
// connection down (including a consistency kill) aborts the logical
// connection.
type WideChannel struct {
	ends    []*link.End
	width   int         // physical width of one lane
	scratch []word.Word // Recv merge buffer, reused every cycle
}

// NewWideChannel bundles the given lane ends (member 0 carries the least
// significant bits).
func NewWideChannel(ends []*link.End, width int) *WideChannel {
	if len(ends) == 0 {
		panic("cascade: wide channel needs at least one lane")
	}
	return &WideChannel{
		ends:    append([]*link.End(nil), ends...),
		width:   width,
		scratch: make([]word.Word, len(ends)),
	}
}

// Lanes returns the cascade factor.
func (w *WideChannel) Lanes() int { return len(w.ends) }

// Send stages the logical word across the lanes.
func (w *WideChannel) Send(x word.Word) {
	for k, end := range w.ends {
		end.Send(MemberWord(x, k, w.width))
	}
}

// Recv merges the lanes' arriving words into the logical word. A lockstep
// violation (differing kinds) merges to Empty, which the endpoint
// protocol treats as a failed connection — the consistency kill will have
// asserted BCB in the same breath.
func (w *WideChannel) Recv() word.Word {
	for k, end := range w.ends {
		w.scratch[k] = end.Recv()
	}
	return MergeWords(w.scratch, w.width)
}

// SendBCB drives the backward control bit on every lane.
func (w *WideChannel) SendBCB(b bool) {
	for _, end := range w.ends {
		end.SendBCB(b)
	}
}

// RecvBCB reports whether any lane's BCB is asserted.
func (w *WideChannel) RecvBCB() bool {
	for _, end := range w.ends {
		if end.RecvBCB() {
			return true
		}
	}
	return false
}
