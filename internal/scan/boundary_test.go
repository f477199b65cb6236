package scan

import (
	"testing"

	"metro/internal/clock"
	"metro/internal/link"
	"metro/internal/word"
)

// boundaryPair wires router A's backward port 2 to router B's forward
// port 1 and returns everything a cross-chip boundary test needs.
func boundaryPair(t *testing.T) (eng *clock.Engine, mtA, mtB *MultiTAP, wire *link.Link) {
	t.Helper()
	a := testRouter()
	b := testRouter()
	wire = link.New("a.b2->b.f1", 1)
	a.AttachBackward(2, wire.A())
	b.AttachForward(1, wire.B())
	mtA = NewMultiTAP(a, 0xA)
	mtB = NewMultiTAP(b, 0xB)
	eng = clock.New()
	eng.Add(mtA.Boundary(), mtB.Boundary())
	eng.AddLatch(wire)
	// Isolate the port pair, as the diagnosis flow requires.
	a.SetBackwardEnabled(2, false)
	b.SetForwardEnabled(1, false)
	return eng, mtA, mtB, wire
}

func TestExtestDrivesAndSampleObserves(t *testing.T) {
	eng, mtA, mtB, _ := boundaryPair(t)
	// Load the EXTEST pattern into A through its TAP.
	dA := NewDriver(mtA.TAPs()[0])
	dA.Reset()
	pattern := mtA.Boundary().OutputCellBits(map[int]uint32{2: 0x9})
	dA.WriteRegister(EXTEST, pattern)
	if !mtA.Boundary().Driving() {
		t.Fatal("EXTEST update did not start driving")
	}
	eng.Run(3) // let the drive propagate across the wire
	// Sample B's boundary through its TAP.
	dB := NewDriver(mtB.TAPs()[0])
	dB.Reset()
	img := dB.ReadRegister(SAMPLE, mtB.Boundary().Len())
	if got := mtB.Boundary().InputCell(img, 1); got != 0x9 {
		t.Fatalf("sampled %#x at B.f1, want the driven 0x9", got)
	}
}

func TestExtestLocalizesStuckBitAcrossChips(t *testing.T) {
	eng, mtA, mtB, wire := boundaryPair(t)
	wire.SetCorruptor(func(w word.Word) word.Word {
		w.Payload |= 0x4
		return w
	}, nil)
	dA := NewDriver(mtA.TAPs()[0])
	dA.Reset()
	dB := NewDriver(mtB.TAPs()[0])
	dB.Reset()

	var stuckHigh uint32 = word.Mask(4)
	for _, p := range []uint32{0x0, 0xF, 0x1, 0x2, 0x4, 0x8} {
		dA.WriteRegister(EXTEST, mtA.Boundary().OutputCellBits(map[int]uint32{2: p}))
		eng.Run(3)
		img := dB.ReadRegister(SAMPLE, mtB.Boundary().Len())
		got := mtB.Boundary().InputCell(img, 1)
		stuckHigh &= got // a stuck-high bit reads 1 under every pattern
	}
	if stuckHigh != 0x4 {
		t.Fatalf("cross-chip localization found %#x, want 0x4", stuckHigh)
	}
}

func TestExtestNeverDrivesEnabledPorts(t *testing.T) {
	eng, mtA, _, wire := boundaryPair(t)
	// Re-enable the port: EXTEST must leave it alone.
	mtA.Boundary().router.SetBackwardEnabled(2, true)
	dA := NewDriver(mtA.TAPs()[0])
	dA.Reset()
	dA.WriteRegister(EXTEST, mtA.Boundary().OutputCellBits(map[int]uint32{2: 0xF}))
	eng.Run(3)
	if got := wire.B().Recv(); !got.IsEmpty() {
		t.Fatalf("EXTEST drove an enabled port: %v", got)
	}
}

func TestBoundaryRelease(t *testing.T) {
	eng, mtA, _, wire := boundaryPair(t)
	dA := NewDriver(mtA.TAPs()[0])
	dA.Reset()
	dA.WriteRegister(EXTEST, mtA.Boundary().OutputCellBits(map[int]uint32{2: 0x5}))
	eng.Run(2)
	if wire.B().Recv().IsEmpty() {
		t.Fatal("drive not visible")
	}
	mtA.Boundary().Release()
	eng.Run(2)
	if !wire.B().Recv().IsEmpty() {
		t.Fatal("drive persisted after Release")
	}
}

func TestSampleWhileIdleReadsZero(t *testing.T) {
	_, _, mtB, _ := boundaryPair(t)
	dB := NewDriver(mtB.TAPs()[0])
	dB.Reset()
	img := dB.ReadRegister(SAMPLE, mtB.Boundary().Len())
	if got := mtB.Boundary().InputCell(img, 1); got != 0 {
		t.Fatalf("idle sample = %#x", got)
	}
}
