package word

import (
	"testing"
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

// TestMask is the runtime proof of Mask's width contract (metrovet reads
// nothing from its guards): every width from below the range to above
// it, against a mask built one bit at a time.
func TestMask(t *testing.T) {
	for width := -2; width <= 34; width++ {
		var want uint32
		for bit := 0; bit < width && bit < 32; bit++ {
			want |= 1 << bit
		}
		if got := Mask(width); got != want {
			t.Errorf("Mask(%d) = %#x, want %#x", width, got, want)
		}
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

// TestSplitJoinChecksumRoundTrip is the runtime proof of the checksum
// helpers' width contract (metrovet reads nothing from their guards):
// every sum at every channel width, each word against an independent
// chunking of the sum, then the widths outside [1, 32].
func TestSplitJoinChecksumRoundTrip(t *testing.T) {
	prefix := Word{Kind: Data, Payload: 0x1234}
	for width := 1; width <= 32; width++ {
		for s := 0; s < 256; s++ {
			sum := uint8(s)
			words := AppendChecksum([]Word{prefix}, sum, width)
			if words[0] != prefix {
				t.Fatalf("width %d: AppendChecksum overwrote dst: %v", width, words[0])
			}
			words = words[1:]
			if len(words) != ChecksumWords(width) || len(words) != (8+width-1)/width {
				t.Fatalf("width %d: %d words, ChecksumWords says %d", width, len(words), ChecksumWords(width))
			}
			for i, w := range words {
				// Chunk i is bits [i*width, (i+1)*width) of the sum, in
				// 64-bit arithmetic that no width here can overflow.
				want := uint32((uint64(sum) >> (i * width)) & (1<<width - 1))
				if w.Kind != ChecksumWord || w.Payload != want {
					t.Fatalf("width %d sum %#x: word %d = %v, want payload %#x", width, sum, i, w, want)
				}
			}
			if got := JoinChecksum(words, width); got != sum {
				t.Fatalf("width %d: join(append(%#x)) = %#x", width, sum, got)
			}
			// Trailing words past the CRC-8 width are ignored.
			extra := append(words, Word{Kind: ChecksumWord, Payload: Mask(width)})
			if got := JoinChecksum(extra, width); got != sum {
				t.Fatalf("width %d: join with a trailing word = %#x, want %#x", width, got, sum)
			}
		}
	}
	for _, width := range []int{-2, -1, 0} {
		if words := AppendChecksum(nil, 0xa5, width); len(words) != 0 {
			t.Errorf("AppendChecksum at width %d carried %d words", width, len(words))
		}
		if got := JoinChecksum([]Word{{Kind: ChecksumWord, Payload: 0xa5}}, width); got != 0 {
			t.Errorf("JoinChecksum at width %d = %#x, want 0", width, got)
		}
	}
	for _, width := range []int{33, 40, 64} {
		words := AppendChecksum(nil, 0xa5, width)
		if len(words) != 1 || words[0].Payload != 0xa5 {
			t.Errorf("AppendChecksum at width %d = %v, want the one word width 32 carries", width, words)
		}
		if got := JoinChecksum(words, width); got != 0xa5 {
			t.Errorf("JoinChecksum at width %d = %#x, want 0xa5", width, got)
		}
	}
}

func TestJoinChecksumIgnoresExtraWords(t *testing.T) {
	words := AppendChecksum(nil, 0x5a, 4)
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
