package scan

import (
	"fmt"

	"metro/internal/core"
	"metro/internal/link"
	"metro/internal/word"
)

// MultiTAP is METRO's extension of 1149.1: a component carries sp
// independent TAPs, each a complete controller reaching the same shared
// registers, so a fault in one scan path leaves the component
// configurable and diagnosable through another.
type MultiTAP struct {
	taps     []*TAP
	boundary *Boundary
}

// NewMultiTAP builds sp TAPs for a router, all multiplexed onto one shared
// CONFIG register and one shared boundary register (SAMPLE and EXTEST).
// The component id appears in every TAP's IDCODE with the TAP index in the
// top nibble.
func NewMultiTAP(r *core.Router, id uint32) *MultiTAP {
	sp := r.Config().ScanPaths
	cfg := NewSettingsRegister(r)
	boundary := NewBoundary(r)
	m := &MultiTAP{boundary: boundary}
	for i := 0; i < sp; i++ {
		regs := map[Instruction]Register{
			CONFIG: cfg,
			SAMPLE: boundary,
			EXTEST: boundary,
		}
		tapID := id&0x0fffffff | uint32(i)<<28
		m.taps = append(m.taps, NewTAP(fmt.Sprintf("%s.tap%d", r.Name(), i), tapID, regs))
	}
	return m
}

// Boundary returns the component's boundary-scan register; add it to the
// simulation engine to make EXTEST drives take effect.
func (m *MultiTAP) Boundary() *Boundary { return m.boundary }

// TAPs returns the component's scan paths.
func (m *MultiTAP) TAPs() []*TAP { return m.taps }

// Working returns a driver for the first healthy TAP, or nil if every
// scan path is faulted.
func (m *MultiTAP) Working() *Driver {
	for _, t := range m.taps {
		if !t.Broken() {
			return NewDriver(t)
		}
	}
	return nil
}

// LoadSettings writes router settings through any healthy TAP, returning
// false when no scan path works.
func (m *MultiTAP) LoadSettings(bits []bool) bool {
	d := m.Working()
	if d == nil {
		return false
	}
	d.Reset()
	d.WriteRegister(CONFIG, bits)
	return true
}

// ReadSettings reads the live configuration through any healthy TAP.
func (m *MultiTAP) ReadSettings(n int) ([]bool, bool) {
	d := m.Working()
	if d == nil {
		return nil, false
	}
	d.Reset()
	return d.ReadRegister(CONFIG, n), true
}

// LoopbackResult reports a boundary test of one isolated link.
type LoopbackResult struct {
	// Passed is true when every pattern arrived unmodified.
	Passed bool
	// StuckHigh and StuckLow are masks of payload bits observed stuck.
	StuckHigh, StuckLow uint32
	// Patterns counts test words driven.
	Patterns int
}

// LoopbackTest exercises an isolated link with EXTEST-style patterns: the
// A end drives each pattern while the B end samples, localizing stuck
// payload bits. Both attached ports must have been disabled (via CONFIG)
// first, so the patterns cannot disturb live traffic — this is the
// paper's on-line diagnosis flow. The walking-ones and walking-zeros
// patterns over the given width are always included.
func LoopbackTest(l *link.Link, width word.Width, extra []uint32) LoopbackResult {
	res := LoopbackResult{Passed: true}
	patterns := []uint32{0, word.Mask(width)}
	for b := 0; b < width.Bits(); b++ {
		patterns = append(patterns, 1<<uint(b))
		patterns = append(patterns, word.Mask(width)&^(1<<uint(b)))
	}
	patterns = append(patterns, extra...)

	stuckHighCand := word.Mask(width)
	stuckLowCand := word.Mask(width)
	a, b := l.A(), l.B()
	for _, p := range patterns {
		a.Send(word.MakeData(p, width))
		for i := 0; i < l.Delay(); i++ {
			l.Commit(0)
		}
		got := b.Recv()
		res.Patterns++
		if got.Kind != word.Data || got.Payload != p&word.Mask(width) {
			res.Passed = false
		}
		if got.Kind == word.Data {
			// A bit stuck high reads 1 where we drove 0 and never reads 0.
			stuckHighCand &= got.Payload
			stuckLowCand &= ^got.Payload
		}
	}
	// Only bits that were constant across ALL patterns are stuck.
	res.StuckHigh = stuckHighCand
	res.StuckLow = stuckLowCand & word.Mask(width)
	if res.Passed {
		res.StuckHigh, res.StuckLow = 0, 0
	}
	return res
}
