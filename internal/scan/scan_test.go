package scan

import (
	"testing"

	"metro/internal/core"
	"metro/internal/link"
	"metro/internal/word"
)

func testRouter() *core.Router {
	cfg := core.Config{Inputs: 4, Outputs: 4, Width: 4, MaxDilation: 2,
		HeaderWords: 0, DataPipe: 1, MaxVTD: 4, RandomInputs: 2, ScanPaths: 3}
	return core.NewRouter("r", cfg, core.DefaultSettings(cfg), 1)
}

func TestTAPStateDiagram(t *testing.T) {
	// Walk the canonical DR scan sequence from Run-Test/Idle.
	s := RunTestIdle
	seq := []struct {
		tms  bool
		want State
	}{
		{true, SelectDRScan},
		{false, CaptureDR},
		{false, ShiftDR},
		{false, ShiftDR},
		{true, Exit1DR},
		{false, PauseDR},
		{true, Exit2DR},
		{false, ShiftDR},
		{true, Exit1DR},
		{true, UpdateDR},
		{false, RunTestIdle},
	}
	for i, step := range seq {
		s = s.Next(step.tms)
		if s != step.want {
			t.Fatalf("step %d: state %v, want %v", i, s, step.want)
		}
	}
}

func TestTAPResetFromAnywhere(t *testing.T) {
	// Five TMS=1 clocks reach Test-Logic-Reset from every state.
	for s := TestLogicReset; s <= UpdateIR; s++ {
		cur := s
		for i := 0; i < 5; i++ {
			cur = cur.Next(true)
		}
		if cur != TestLogicReset {
			t.Errorf("five TMS=1 from %v landed in %v", s, cur)
		}
	}
}

func TestIDCodeReadback(t *testing.T) {
	tap := NewTAP("t", 0x1234ABCD, nil)
	d := NewDriver(tap)
	d.Reset()
	if got := d.ReadIDCode(); got != 0x1234ABCD {
		t.Fatalf("IDCODE = %#x", got)
	}
}

func TestInstructionLoadAndBypass(t *testing.T) {
	tap := NewTAP("t", 1, nil)
	d := NewDriver(tap)
	d.Reset()
	d.LoadInstruction(BYPASS)
	if tap.Instruction() != BYPASS {
		t.Fatalf("instruction = %v", tap.Instruction())
	}
	// The bypass register is one bit: shifting 8 bits returns the input
	// delayed by one.
	in := UintToBits(0b10110010, 8)
	out := d.ShiftData(8, in)
	for i := 1; i < 8; i++ {
		if out[i] != in[i-1] {
			t.Fatalf("bypass delay wrong at bit %d: out=%v in=%v", i, out, in)
		}
	}
}

func TestResetSelectsIDCODE(t *testing.T) {
	tap := NewTAP("t", 7, nil)
	d := NewDriver(tap)
	d.LoadInstruction(BYPASS)
	d.Reset()
	if tap.Instruction() != IDCODE {
		t.Fatal("reset should select IDCODE")
	}
}

func TestSettingsRegisterRoundTrip(t *testing.T) {
	r := testRouter()
	reg := NewSettingsRegister(r)
	bits := reg.Capture()
	if len(bits) != reg.Len() {
		t.Fatalf("capture length %d != Len %d", len(bits), reg.Len())
	}
	// Mutate: disable forward port 1 and backward port 2, set dilation 1.
	set := r.Settings()
	set.Dilation = 1
	set.ForwardEnabled &^= 1 << 1
	set.BackwardEnabled &^= 1 << 2
	set.FastReclaim &^= 1 << 0
	set.TurnDelay[3] = 3
	r2 := testRouter()
	reg2 := NewSettingsRegister(r2)
	if err := r.ApplySettings(set); err != nil {
		t.Fatal(err)
	}
	// Serialize r's settings and load them into r2 over scan.
	reg2.Update(reg.Capture())
	got := r2.Settings()
	if got.Dilation != 1 || got.ForwardEnabled != 0b1101 || got.BackwardEnabled != 0b1011 ||
		got.FastReclaim != 0b1110 || got.TurnDelay[3] != 3 {
		t.Fatalf("settings did not survive scan round trip: %+v", got)
	}
}

func TestConfigOverTAP(t *testing.T) {
	r := testRouter()
	mt := NewMultiTAP(r, 0x00C0FFEE)
	if len(mt.TAPs()) != 3 {
		t.Fatalf("scan paths = %d, want sp = 3", len(mt.TAPs()))
	}
	reg := NewSettingsRegister(r)

	// Read the live config, flip the dilation field, write it back.
	bits, ok := mt.ReadSettings(reg.Len())
	if !ok {
		t.Fatal("no working TAP")
	}
	bits[0] = false // log2(dilation) = 0 -> dilation 1
	bits[1] = false
	if !mt.LoadSettings(bits) {
		t.Fatal("load failed")
	}
	if r.Dilation() != 1 {
		t.Fatalf("dilation = %d after scan load, want 1", r.Dilation())
	}
}

func TestMultiTAPToleratesBrokenPaths(t *testing.T) {
	r := testRouter()
	mt := NewMultiTAP(r, 42)
	reg := NewSettingsRegister(r)
	mt.TAPs()[0].Break()
	mt.TAPs()[1].Break()
	bits, ok := mt.ReadSettings(reg.Len())
	if !ok {
		t.Fatal("third TAP should still work")
	}
	if !mt.LoadSettings(bits) {
		t.Fatal("load via surviving TAP failed")
	}
	mt.TAPs()[2].Break()
	if _, ok := mt.ReadSettings(reg.Len()); ok {
		t.Fatal("all TAPs broken should fail")
	}
	if mt.LoadSettings(bits) {
		t.Fatal("load with all TAPs broken should fail")
	}
}

func TestTAPIDsDistinguishScanPaths(t *testing.T) {
	r := testRouter()
	mt := NewMultiTAP(r, 0x0000BEEF)
	seen := map[uint32]bool{}
	for _, tap := range mt.TAPs() {
		d := NewDriver(tap)
		d.Reset()
		id := d.ReadIDCode()
		if id&0x0fffffff != 0xBEEF {
			t.Fatalf("component id corrupted: %#x", id)
		}
		if seen[id] {
			t.Fatalf("duplicate TAP id %#x", id)
		}
		seen[id] = true
	}
}

func TestInvalidScanConfigRejected(t *testing.T) {
	r := testRouter()
	reg := NewSettingsRegister(r)
	bits := reg.Capture()
	// Force dilation select to an illegal value (log2 d = 3 -> d = 8 > max_d).
	bits[0] = true
	bits[1] = true
	reg.Update(bits)
	if r.Dilation() != 2 {
		t.Fatalf("illegal dilation applied: %d", r.Dilation())
	}
}

func TestLoopbackTestHealthyLink(t *testing.T) {
	l := link.New("t", 1)
	res := LoopbackTest(l, mustWidth(4), []uint32{0x5, 0xA})
	if !res.Passed {
		t.Fatalf("healthy link failed: %+v", res)
	}
	if res.StuckHigh != 0 || res.StuckLow != 0 {
		t.Fatalf("healthy link reported stuck bits: %+v", res)
	}
}

func TestLoopbackTestLocalizesStuckBit(t *testing.T) {
	l := link.New("t", 2)
	l.SetCorruptor(func(w word.Word) word.Word {
		w.Payload |= 0x4 // bit 2 stuck high
		return w
	}, nil)
	res := LoopbackTest(l, mustWidth(4), nil)
	if res.Passed {
		t.Fatal("stuck bit not detected")
	}
	if res.StuckHigh != 0x4 {
		t.Fatalf("stuck-high mask = %#x, want 0x4", res.StuckHigh)
	}
	if res.StuckLow != 0 {
		t.Fatalf("stuck-low mask = %#x, want 0", res.StuckLow)
	}
}

func TestLoopbackTestStuckLow(t *testing.T) {
	l := link.New("t", 1)
	l.SetCorruptor(func(w word.Word) word.Word {
		w.Payload &^= 0x1
		return w
	}, nil)
	res := LoopbackTest(l, mustWidth(4), nil)
	if res.Passed || res.StuckLow != 0x1 || res.StuckHigh != 0 {
		t.Fatalf("stuck-low localization wrong: %+v", res)
	}
}

func TestLoopbackTestDeadLink(t *testing.T) {
	l := link.New("t", 1)
	l.Kill()
	res := LoopbackTest(l, mustWidth(4), nil)
	if res.Passed {
		t.Fatal("dead link passed loopback")
	}
}

func TestIsolatePortTestAndMask(t *testing.T) {
	// The paper's diagnosis flow: disable a port pair over scan, run the
	// boundary test on the isolated link, confirm the fault, leave the
	// port masked while the rest of the router keeps routing.
	r := testRouter()
	mt := NewMultiTAP(r, 9)
	reg := NewSettingsRegister(r)

	faulty := link.New("b2", 1)
	faulty.SetCorruptor(func(w word.Word) word.Word {
		w.Payload |= 0x8
		return w
	}, nil)
	r.AttachBackward(2, faulty.A())

	// Disable backward port 2 via scan.
	bits, _ := mt.ReadSettings(reg.Len())
	set := r.Settings()
	set.BackwardEnabled &^= 1 << 2
	r2 := core.NewRouter("shadow", r.Config(), set, 2)
	shadow := NewSettingsRegister(r2)
	mt.LoadSettings(shadow.Capture())
	if r.BackwardEnabled(2) {
		t.Fatal("port not disabled over scan")
	}
	_ = bits

	// Boundary test the isolated link.
	res := LoopbackTest(faulty, mustWidth(4), nil)
	if res.Passed || res.StuckHigh != 0x8 {
		t.Fatalf("fault not localized: %+v", res)
	}
	// The masked port stays disabled; other ports remain enabled.
	if got := r.Settings().BackwardEnabled; got != 0b1011 {
		t.Fatalf("backward enables %04b, want only port 2 masked", got)
	}
}

func TestSetPortEnabledOverScan(t *testing.T) {
	r := testRouter()
	mt := NewMultiTAP(r, 0x51)
	if !SetPortEnabled(mt, r, true, 2, false) {
		t.Fatal("scan disable failed")
	}
	got := r.Settings()
	if got.BackwardEnabled != 0b1011 {
		t.Fatalf("backward enables %04b, want only port 2 disabled", got.BackwardEnabled)
	}
	if got.ForwardEnabled != 0b1111 {
		t.Fatalf("forward enables %04b disturbed", got.ForwardEnabled)
	}
	if got.Dilation != 2 {
		t.Fatalf("dilation disturbed: %d", got.Dilation)
	}
	// Forward bank, and re-enable.
	if !SetPortEnabled(mt, r, false, 1, false) {
		t.Fatal("forward disable failed")
	}
	if r.ForwardEnabled(1) {
		t.Fatal("forward port 1 still enabled")
	}
	if !SetPortEnabled(mt, r, true, 2, true) {
		t.Fatal("re-enable failed")
	}
	if !r.BackwardEnabled(2) {
		t.Fatal("backward port 2 not restored")
	}
	// All TAPs broken: the operation reports failure.
	for _, tap := range mt.TAPs() {
		tap.Break()
	}
	if SetPortEnabled(mt, r, true, 0, false) {
		t.Fatal("operation succeeded with no working scan path")
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
