package word

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestLayoutPinWordIsEightBytes pins the field order: Payload first packs a
// Word into 8 bytes, and every port buffer and link register in the model is
// sized by it. A field added or moved so the struct grows fails here, not in
// a heap profile three PRs later.
func TestLayoutPinWordIsEightBytes(t *testing.T) {
	if got := unsafe.Sizeof(Word{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(word.Word{}) = %d, want 8", got)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Empty:        "EMPTY",
		Route:        "ROUTE",
		HeaderPad:    "HDRPAD",
		Data:         "DATA",
		DataIdle:     "IDLE",
		Turn:         "TURN",
		Status:       "STATUS",
		ChecksumWord: "CKSUM",
		Drop:         "DROP",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestWordString(t *testing.T) {
	w := MakeRoute(0b1011, 4)
	if got := w.String(); got != "ROUTE(0xb/4b)" {
		t.Errorf("route word String() = %q", got)
	}
	d := MakeData(0x5, 4)
	if got := d.String(); got != "DATA(0x5)" {
		t.Errorf("data word String() = %q", got)
	}
	if got := (Word{Kind: Turn}).String(); got != "TURN" {
		t.Errorf("turn word String() = %q", got)
	}
}

func TestMakeDataMasks(t *testing.T) {
	w := MakeData(0xabcd, 8)
	if w.Payload != 0xcd {
		t.Errorf("MakeData did not mask to width: %#x", w.Payload)
	}
	w = MakeData(0xffffffff, 32)
	if w.Payload != 0xffffffff {
		t.Errorf("MakeData(width 32) clipped payload: %#x", w.Payload)
	}
}

func TestMask(t *testing.T) {
	if Mask(4) != 0xf {
		t.Errorf("Mask(4) = %#x", Mask(4))
	}
	if Mask(8) != 0xff {
		t.Errorf("Mask(8) = %#x", Mask(8))
	}
	if Mask(32) != 0xffffffff {
		t.Errorf("Mask(32) = %#x", Mask(32))
	}
	if Mask(33) != 0xffffffff {
		t.Errorf("Mask(33) = %#x", Mask(33))
	}
}

func TestIsEmpty(t *testing.T) {
	if !(Word{}).IsEmpty() {
		t.Error("zero Word should be empty")
	}
	if (Word{Kind: DataIdle}).IsEmpty() {
		t.Error("DataIdle should not be empty")
	}
}

func TestChecksumKnownValue(t *testing.T) {
	// CRC-8 poly 0x07, init 0, of "123456789" is 0xF4 (CRC-8/SMBUS check value).
	var c Checksum
	for _, b := range []byte("123456789") {
		c.AddByte(b)
	}
	if c.Sum() != 0xF4 {
		t.Errorf("CRC-8 check value = %#x, want 0xf4", c.Sum())
	}
}

func TestChecksumCoverage(t *testing.T) {
	var c Checksum
	c.Add(Word{Kind: Data, Payload: 0x12})
	withData := c.Sum()
	// Control words must not perturb the checksum.
	c.Add(Word{Kind: DataIdle, Payload: 0xff})
	c.Add(Word{Kind: Turn})
	c.Add(Word{Kind: Status, Payload: 1})
	c.Add(Word{Kind: Drop})
	c.Add(Word{})
	if c.Sum() != withData {
		t.Error("control words changed the checksum")
	}
	// Content words must.
	c.Add(Word{Kind: Route, Payload: 0x3, Bits: 2})
	if c.Sum() == withData {
		t.Error("route word did not change the checksum")
	}
}

func TestChecksumReset(t *testing.T) {
	var c Checksum
	c.AddByte(0xaa)
	c.Reset()
	if c.Sum() != 0 {
		t.Errorf("Sum after Reset = %#x", c.Sum())
	}
}

func TestChecksumWords(t *testing.T) {
	cases := []struct{ width, want int }{
		{1, 8}, {2, 4}, {3, 3}, {4, 2}, {8, 1}, {16, 1}, {32, 1},
	}
	for _, tc := range cases {
		if got := ChecksumWords(tc.width); got != tc.want {
			t.Errorf("ChecksumWords(%d) = %d, want %d", tc.width, got, tc.want)
		}
	}
	if ChecksumWords(0) != 0 {
		t.Error("ChecksumWords(0) should be 0")
	}
}

func TestSplitJoinChecksumRoundTrip(t *testing.T) {
	f := func(sum uint8, widthSeed uint8) bool {
		widths := []int{1, 2, 4, 8, 16}
		width := widths[int(widthSeed)%len(widths)]
		words := SplitChecksum(sum, width)
		if len(words) != ChecksumWords(width) {
			return false
		}
		for _, w := range words {
			if w.Kind != ChecksumWord {
				return false
			}
			if w.Payload&^Mask(width) != 0 {
				return false
			}
		}
		return JoinChecksum(words, width) == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJoinChecksumIgnoresExtraWords(t *testing.T) {
	words := SplitChecksum(0x5a, 4)
	words = append(words, Word{Kind: ChecksumWord, Payload: 0xf})
	if got := JoinChecksum(words, 4); got != 0x5a {
		t.Errorf("JoinChecksum with extra words = %#x, want 0x5a", got)
	}
}

func TestChecksumOrderSensitivity(t *testing.T) {
	var a, b Checksum
	a.AddByte(1)
	a.AddByte(2)
	b.AddByte(2)
	b.AddByte(1)
	if a.Sum() == b.Sum() {
		t.Error("CRC should be order sensitive for these inputs")
	}
}
