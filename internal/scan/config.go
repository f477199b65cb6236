package scan

import (
	"math/bits"

	"metro/internal/core"
)

// SettingsRegister adapts a router's run-time settings (Table 2) to a scan
// data register. The bit layout, LSB (first-shifted) first, each per-port
// field port 0 first:
//
//	dilation select      log2(max_d)+1 bits (encodes log2(d))
//	forward port enable  i bits
//	backward port enable o bits
//	off-port drive       i+o bits: the forward ports', then the backward ports'
//	fast reclaim         i bits
//	swallow              i bits
//	turn delay           bitsFor(max_vtd) bits per port, i+o ports
//
// Capture serializes the router's live settings; Update validates and
// applies the shifted-in value, as the silicon's Update-DR would. An
// invalid value (for example a dilation above max_d) is rejected and the
// old settings stay in force. A shift-in shorter than Len writes the bits
// it reaches and keeps the rest.
type SettingsRegister struct {
	router *core.Router
}

// NewSettingsRegister builds the CONFIG register for a router.
func NewSettingsRegister(r *core.Router) *SettingsRegister {
	return &SettingsRegister{router: r}
}

func bitsFor(maxValue int) int {
	if maxValue <= 0 {
		return 1
	}
	return bits.Len(uint(maxValue))
}

// field is one field of the CONFIG register: its width in bits (at most
// 64) and how its value reads from and writes to the settings.
type field struct {
	bits int
	get  func(*core.Settings) uint64
	set  func(*core.Settings, uint64)
}

// mask is the field of a per-port mask m of n ports.
func mask(n int, m func(*core.Settings) *uint64) field {
	return field{n,
		func(s *core.Settings) uint64 { return *m(s) },
		func(s *core.Settings, v uint64) { *m(s) = v }}
}

// fields lists the register's fields in shift order (see SettingsRegister).
func fields(cfg core.Config) []field {
	fs := []field{
		{bitsFor(log2i(cfg.MaxDilation)),
			func(s *core.Settings) uint64 { return uint64(log2i(s.Dilation)) },
			func(s *core.Settings, v uint64) { s.Dilation = 1 << v }},
		mask(cfg.Inputs, func(s *core.Settings) *uint64 { return &s.ForwardEnabled }),
		mask(cfg.Outputs, func(s *core.Settings) *uint64 { return &s.BackwardEnabled }),
		mask(cfg.Inputs, func(s *core.Settings) *uint64 { return &s.OffPortDrive[0] }),
		mask(cfg.Outputs, func(s *core.Settings) *uint64 { return &s.OffPortDrive[1] }),
		mask(cfg.Inputs, func(s *core.Settings) *uint64 { return &s.FastReclaim }),
		mask(cfg.Inputs, func(s *core.Settings) *uint64 { return &s.Swallow }),
	}
	for p := range cfg.Inputs + cfg.Outputs {
		fs = append(fs, field{bitsFor(cfg.MaxVTD),
			func(s *core.Settings) uint64 { return uint64(s.TurnDelay[p]) },
			func(s *core.Settings, v uint64) { s.TurnDelay[p] = int(v) }})
	}
	return fs
}

// Len implements Register.
func (s *SettingsRegister) Len() int {
	n := 0
	for _, f := range fields(s.router.Config()) {
		n += f.bits
	}
	return n
}

// Capture implements Register.
func (s *SettingsRegister) Capture() []bool {
	set := s.router.Settings()
	var out []bool
	for _, f := range fields(s.router.Config()) {
		out = append(out, UintToBits(f.get(&set), f.bits)...)
	}
	return out
}

// Update implements Register.
func (s *SettingsRegister) Update(in []bool) {
	set := s.router.Settings()
	for _, f := range fields(s.router.Config()) {
		n := min(f.bits, len(in))
		kept := f.get(&set) &^ (1<<n - 1)
		f.set(&set, kept|BitsToUint(in[:n]))
		in = in[n:]
	}
	// Apply only if valid; the silicon ignores illegal updates.
	_ = s.router.ApplySettings(set)
}

func log2i(v int) int {
	n := 0
	for 1<<uint(n) < v {
		n++
	}
	return n
}

// SetPortEnabled performs a read-modify-write of the CONFIG register
// through any healthy TAP of the component, enabling or disabling one
// port while leaving every other option untouched — the scan sequence a
// host uses to isolate or restore a port during operation. backward
// selects the backward-port enable bank; port indexes within the bank.
// It returns false when no scan path works.
func SetPortEnabled(m *MultiTAP, r *core.Router, backward bool, port int, on bool) bool {
	reg := NewSettingsRegister(r)
	bits, ok := m.ReadSettings(reg.Len())
	if !ok {
		return false
	}
	cfg := r.Config()
	// Field layout per SettingsRegister: dilation select, forward
	// enables, backward enables, ...
	pos := bitsFor(log2i(cfg.MaxDilation))
	if backward {
		pos += cfg.Inputs
	}
	pos += port
	if pos >= len(bits) {
		return false
	}
	bits[pos] = on
	return m.LoadSettings(bits)
}
