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
	d := MakeData(0x5, width(t, 4))
	if got := d.String(); got != "DATA(0x5)" {
		t.Errorf("data word String() = %q", got)
	}
	if got := (Word{Kind: Turn}).String(); got != "TURN" {
		t.Errorf("turn word String() = %q", got)
	}
}

func TestMakeDataMasks(t *testing.T) {
	w := MakeData(0xabcd, width(t, 8))
	if w.Payload != 0xcd {
		t.Errorf("MakeData did not mask to width: %#x", w.Payload)
	}
	w = MakeData(0xffffffff, width(t, 32))
	if w.Payload != 0xffffffff {
		t.Errorf("MakeData(width 32) clipped payload: %#x", w.Payload)
	}
}

// width returns the Width of n bits, failing the test outside [1, 32].
func width(t testing.TB, n int) Width {
	t.Helper()
	w, err := NewWidth(n)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestNewWidth pins the one constructor: [1, 32] in, everything else out,
// with the rejected width in the error.
func TestNewWidth(t *testing.T) {
	for _, tc := range []struct {
		n   int
		err string
	}{
		{-1, "width -1 outside [1,32]"},
		{0, "width 0 outside [1,32]"},
		{1, ""},
		{32, ""},
		{33, "width 33 outside [1,32]"},
		{64, "width 64 outside [1,32]"},
	} {
		w, err := NewWidth(tc.n)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("NewWidth(%d): %v", tc.n, err)
		case tc.err == "" && w.Bits() != tc.n:
			t.Errorf("NewWidth(%d).Bits() = %d", tc.n, w.Bits())
		case tc.err != "" && (err == nil || err.Error() != tc.err):
			t.Errorf("NewWidth(%d) error = %v, want %q", tc.n, err, tc.err)
		}
	}
	if got := (Width{}).Bits(); got != 1 {
		t.Errorf("the zero Width is %d bits, want 1", got)
	}
}

// TestMask checks Mask and Bits at every width against a mask built one
// bit at a time.
func TestMask(t *testing.T) {
	for n := 1; n <= 32; n++ {
		w := width(t, n)
		var want uint32
		for bit := 0; bit < n; bit++ {
			want |= 1 << bit
		}
		if got := Mask(w); got != want || w.Bits() != n {
			t.Errorf("width %d: Mask = %#x, Bits = %d; want %#x, %d", n, got, w.Bits(), want, n)
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
		if got := ChecksumWords(width(t, tc.width)); got != tc.want {
			t.Errorf("ChecksumWords(%d) = %d, want %d", tc.width, got, tc.want)
		}
	}
}

// TestSplitJoinChecksumRoundTrip checks every sum at every channel width,
// each word against an independent chunking of the sum.
func TestSplitJoinChecksumRoundTrip(t *testing.T) {
	prefix := Word{Kind: Data, Payload: 0x1234}
	for n := 1; n <= 32; n++ {
		w := width(t, n)
		for s := 0; s < 256; s++ {
			sum := uint8(s)
			words := AppendChecksum([]Word{prefix}, sum, w)
			if words[0] != prefix {
				t.Fatalf("width %d: AppendChecksum overwrote dst: %v", n, words[0])
			}
			words = words[1:]
			if len(words) != ChecksumWords(w) || len(words) != (8+n-1)/n {
				t.Fatalf("width %d: %d words, ChecksumWords says %d", n, len(words), ChecksumWords(w))
			}
			for i, cw := range words {
				// Chunk i is bits [i*n, (i+1)*n) of the sum, in 64-bit
				// arithmetic that no width here can overflow.
				want := uint32((uint64(sum) >> (i * n)) & (1<<n - 1))
				if cw.Kind != ChecksumWord || cw.Payload != want {
					t.Fatalf("width %d sum %#x: word %d = %v, want payload %#x", n, sum, i, cw, want)
				}
			}
			if got := JoinChecksum(words, w); got != sum {
				t.Fatalf("width %d: join(append(%#x)) = %#x", n, sum, got)
			}
			// Trailing words past the CRC-8 width are ignored.
			extra := append(words, Word{Kind: ChecksumWord, Payload: Mask(w)})
			if got := JoinChecksum(extra, w); got != sum {
				t.Fatalf("width %d: join with a trailing word = %#x, want %#x", n, got, sum)
			}
		}
	}
}

func TestJoinChecksumIgnoresExtraWords(t *testing.T) {
	w4 := width(t, 4)
	words := AppendChecksum(nil, 0x5a, w4)
	words = append(words, Word{Kind: ChecksumWord, Payload: 0xf})
	if got := JoinChecksum(words, w4); got != 0x5a {
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
