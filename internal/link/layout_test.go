package link

import (
	"testing"
	"unsafe"
)

// TestLayoutPinEndAndLink pins the two per-link views, in words so that the
// pins hold on 32- and 64-bit platforms alike. An End is three pointers and
// its fault byte: the byte shares the line the receive path already loads
// for the register pointer. A Link is its arena pointer, three int32
// indices and one pointer to the fault state a healthy wire does not have.
// On a 4Ki-endpoint network there are 57,344 Links and twice as many Ends,
// so a word more on either is megabytes (docs/KERNEL.md).
func TestLayoutPinEndAndLink(t *testing.T) {
	const word = unsafe.Sizeof(uintptr(0))
	if size := unsafe.Sizeof(End{}); size > 4*word {
		t.Errorf("End is %d bytes, want at most 4 words (%d)", size, 4*word)
	}
	if size := unsafe.Sizeof(Link{}); size > 5*word {
		t.Errorf("Link is %d bytes, want at most 5 words (%d)", size, 5*word)
	}
	if size := unsafe.Sizeof(reg{}); size != 8 {
		t.Errorf("reg is %d bytes, want 8 (eight registers a line)", size)
	}
}
