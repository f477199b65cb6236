package scan

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"metro/internal/core"
)

// layoutConfig is not square, so a forward bank and a backward bank of the
// register cannot stand in for each other: 4 forward ports, 8 backward,
// a 2-bit dilation select and 3-bit turn delays.
var layoutConfig = core.Config{Inputs: 4, Outputs: 8, Width: 4, MaxDilation: 4,
	HeaderWords: 0, DataPipe: 1, MaxVTD: 5, RandomInputs: 2, ScanPaths: 1}

// writePort sets port p of one per-port option of a Settings, passed by
// address. p numbers the option's own ports; for the off-port drive, which
// spans both banks, the backward ports follow the inputs forward ones. The
// option may be held as a flag per port or as a mask per bank, so the
// tests below read the same whichever way Settings keeps it.
func writePort(field any, inputs, p int, on bool) {
	switch f := field.(type) {
	case *[]bool:
		(*f)[p] = on
	case *uint64:
		*f &^= 1 << p
		if on {
			*f |= 1 << p
		}
	case *[2]uint64:
		bank := 0
		if p >= inputs {
			bank, p = 1, p-inputs
		}
		writePort(&f[bank], inputs, p, on)
	default:
		panic("writePort: not a per-port option")
	}
}

// bitString renders a register value LSB (first-shifted) first.
func bitString(bits []bool) string {
	var b strings.Builder
	for _, on := range bits {
		b.WriteByte("01"[boolInt(on)])
	}
	return b.String()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestSettingsRegisterLayout pins the CONFIG register's bit layout: a
// router whose settings differ from the defaults in every field captures to
// a literal recorded when the options were still one flag per port. A
// reordered field, a bank shifted MSB first or a forward/backward swap
// changes the string.
func TestSettingsRegisterLayout(t *testing.T) {
	cfg := layoutConfig
	r := core.NewRouter("r", cfg, core.DefaultSettings(cfg), 1)
	set := r.Settings()
	set.Dilation = 1
	writePort(&set.ForwardEnabled, cfg.Inputs, 1, false)
	writePort(&set.ForwardEnabled, cfg.Inputs, 3, false)
	writePort(&set.BackwardEnabled, cfg.Inputs, 0, false)
	writePort(&set.BackwardEnabled, cfg.Inputs, 6, false)
	writePort(&set.OffPortDrive, cfg.Inputs, 2, true)            // forward port 2
	writePort(&set.OffPortDrive, cfg.Inputs, cfg.Inputs+5, true) // backward port 5
	writePort(&set.FastReclaim, cfg.Inputs, 0, false)
	writePort(&set.FastReclaim, cfg.Inputs, 2, false)
	writePort(&set.Swallow, cfg.Inputs, 3, false)
	copy(set.TurnDelay, []int{0, 1, 2, 3, 4, 5, 1, 0, 2, 0, 5, 3})
	if err := r.ApplySettings(set); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"00" + // dilation select: log2(1)
		"1010" + // forward enables: ports 1 and 3 off
		"01111101" + // backward enables: ports 0 and 6 off
		"0010" + // off-port drive, forward ports: 2
		"00000100" + // off-port drive, backward ports: 5
		"0101" + // fast reclaim: ports 0 and 2 off
		"1110" + // swallow: port 3 off
		"000" + "100" + "010" + "110" + "001" + "101" + // turn delays, forward ports 0-3 and backward 0-1
		"100" + "000" + "010" + "000" + "101" + "110" //   backward ports 2-7
	reg := NewSettingsRegister(r)
	if got := bitString(reg.Capture()); got != want {
		t.Fatalf("CONFIG capture\n got %s\nwant %s", got, want)
	}
	if reg.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", reg.Len(), len(want))
	}
}

// TestSettingsRegisterRandomRoundTrip: seeded random settings survive
// Capture on one router and Update on another, and a shift-in that stops
// short writes the bits it reached and keeps every bit it did not.
func TestSettingsRegisterRandomRoundTrip(t *testing.T) {
	cfg := layoutConfig
	rng := rand.New(rand.NewSource(44))
	// randomize writes random flags into every per-port option of r and,
	// unless plain, a random dilation and random turn delays.
	randomize := func(r *core.Router, plain bool) {
		set := r.Settings()
		for p := range cfg.Inputs {
			writePort(&set.ForwardEnabled, cfg.Inputs, p, rng.Intn(2) == 1)
			writePort(&set.FastReclaim, cfg.Inputs, p, rng.Intn(2) == 1)
			writePort(&set.Swallow, cfg.Inputs, p, rng.Intn(2) == 1)
		}
		for p := range cfg.Outputs {
			writePort(&set.BackwardEnabled, cfg.Inputs, p, rng.Intn(2) == 1)
		}
		for p := range cfg.Inputs + cfg.Outputs {
			writePort(&set.OffPortDrive, cfg.Inputs, p, rng.Intn(2) == 1)
		}
		set.Dilation = 1
		clear(set.TurnDelay)
		if !plain {
			set.Dilation = 1 << rng.Intn(3)
			for p := range set.TurnDelay {
				set.TurnDelay[p] = rng.Intn(cfg.MaxVTD + 1)
			}
		}
		if err := r.ApplySettings(set); err != nil {
			t.Fatal(err)
		}
	}
	newRouter := func() *core.Router {
		return core.NewRouter("r", cfg, core.DefaultSettings(cfg), 1)
	}
	for trial := range 64 {
		src, dst, plain := newRouter(), newRouter(), newRouter()
		randomize(src, false)
		randomize(dst, false)
		randomize(plain, true)
		in := NewSettingsRegister(src).Capture()
		reg := NewSettingsRegister(dst)
		reg.Update(in)
		if got := reg.Capture(); bitString(got) != bitString(in) {
			t.Fatalf("trial %d: round trip\n got %s\nwant %s", trial, bitString(got), bitString(in))
		}
		if got, want := dst.Settings(), src.Settings(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: settings after round trip %+v, want %+v", trial, got, want)
		}
		// The short shift-in lands on a router at dilation 1 with zero
		// turn delays: a field cut short then reads the same whether its
		// unreached bits are kept or zeroed, and stays valid.
		reg = NewSettingsRegister(plain)
		old := reg.Capture()
		k := 1 + rng.Intn(len(in)-1)
		reg.Update(in[:k])
		want := bitString(in[:k]) + bitString(old[k:])
		if got := bitString(reg.Capture()); got != want {
			t.Fatalf("trial %d: short shift-in of %d bits\n got %s\nwant %s", trial, k, got, want)
		}
	}
}
