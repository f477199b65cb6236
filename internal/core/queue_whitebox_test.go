package core

import (
	"fmt"
	"slices"
	"testing"

	"metro/internal/prng"
	"metro/internal/word"
)

// twoRegions is the reference the flow queue is held to: the buffer model
// it replaced, in which a staged injection sequence and the stream words it
// displaces wait in two separate regions. Staging (flip's or a blocked
// reply's) replaces the sequence and empties the displaced words, and a
// cycle transmits the next injected word if any, else the oldest
// displaced word, else the pipe's output, displacing that output whenever
// a waiting word goes first.
type twoRegions struct {
	pipe   []word.Word
	pipeIn word.Word
	inject []word.Word
	outQ   []word.Word
}

func (m *twoRegions) stage(status word.Word, sum uint8, drop bool, w word.Width) {
	m.inject = word.AppendChecksum([]word.Word{status}, sum, w)
	if drop {
		m.inject = append(m.inject, word.Word{Kind: word.Drop})
	}
	m.outQ = m.outQ[:0]
}

func (m *twoRegions) step(idle word.Word) word.Word {
	n := len(m.pipe)
	out := m.pipe[n-1]
	copy(m.pipe[1:], m.pipe[:n-1])
	m.pipe[0], m.pipeIn = m.pipeIn, word.Word{}
	var sent word.Word
	switch {
	case len(m.inject) > 0:
		sent, m.inject = m.inject[0], m.inject[1:]
	case len(m.outQ) > 0:
		sent, m.outQ = m.outQ[0], m.outQ[1:]
	case out.IsEmpty():
		return idle
	default:
		return out
	}
	if !out.IsEmpty() {
		m.outQ = append(m.outQ, out)
	}
	return sent
}

func (m *twoRegions) turnInPipe() bool {
	isTurn := func(w word.Word) bool { return w.Kind == word.Turn }
	return isTurn(m.pipeIn) || slices.ContainsFunc(m.pipe, isTurn) || slices.ContainsFunc(m.outQ, isTurn)
}

// TestQueueMatchesTwoRegions drives one forward port's flow and one
// closer's through a seeded random schedule of staged sequences and
// arriving data, empty, DATA-IDLE, TURN and DROP words, and holds each
// cycle's transmitted word, pending count (what detach's deadline reads)
// and turnInPipe verdict to the two-region reference. The queue must also
// never hold more than its injWords region.
func TestQueueMatchesTwoRegions(t *testing.T) {
	kinds := []word.Kind{word.Data, word.Data, word.Data, word.Empty, word.Empty, word.DataIdle, word.Turn, word.Drop}
	for _, tc := range []struct {
		width, dp int
	}{{8, 2}, {8, 1}, {4, 3}, {1, 2}, {16, 1}} {
		for seed := uint32(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("width %d dp %d seed %d", tc.width, tc.dp, seed), func(t *testing.T) {
				cfg := Config{Inputs: 2, Outputs: 2, Width: tc.width, MaxDilation: 1, DataPipe: tc.dp, MaxVTD: 1, RandomInputs: 1, ScanPaths: 1}
				r := NewRouter("rt", cfg, DefaultSettings(cfg), 1)
				flows := []*flow{&r.fwd[0].flow, &r.closers[:1][0].flow}
				idles := []word.Word{{Kind: word.DataIdle}, {}}
				refs := make([]twoRegions, len(flows))
				for i := range refs {
					refs[i].pipe = make([]word.Word, tc.dp)
				}
				rng := prng.NewLFSR(seed)
				for cycle := 0; cycle < 2000; cycle++ {
					for i, f := range flows {
						m := &refs[i]
						if rng.NextBits(3) == 0 {
							status := word.Word{Kind: word.Status, Payload: rng.NextBits(2)}
							sum, drop := uint8(rng.NextBits(8)), rng.NextBits(1) == 1
							r.stageInject(f, status, sum, drop)
							m.stage(status, sum, drop, r.cfg.width)
						}
						in := word.Word{Kind: kinds[rng.NextBits(3)]}
						if in.Kind == word.Data {
							in = word.MakeData(rng.NextBits(16), r.cfg.width)
						}
						f.pipeIn, m.pipeIn = in, in
						if got, want := r.turnInPipe(f), m.turnInPipe(); got != want {
							t.Fatalf("flow %d cycle %d: turnInPipe %v, reference %v", i, cycle, got, want)
						}
						got := r.selectOutput(f, r.shiftPipe(f), idles[i])
						if want := m.step(idles[i]); got != want {
							t.Fatalf("flow %d cycle %d: sent %v, reference %v", i, cycle, got, want)
						}
						pending := int(f.qLen) - int(f.qHead)
						if want := len(m.inject) + len(m.outQ); pending != want {
							t.Fatalf("flow %d cycle %d: %d words queued, reference %d", i, cycle, pending, want)
						}
						if !f.within(uint(r.injCap)) {
							t.Fatalf("flow %d cycle %d: queue cursors [%d:%d] outside the %d-word region", i, cycle, f.qHead, f.qLen, r.injCap)
						}
					}
				}
			})
		}
	}
}
