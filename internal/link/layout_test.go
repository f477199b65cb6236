package link

import (
	"testing"
	"unsafe"
)

// TestLayoutPinEndAndLink pins the two per-link views, in words so that the
// pins hold on 32- and 64-bit platforms alike. An End is its arena pointer
// and two int32 register indices, the register it reads and the one it
// stages into: the fault byte lives in the register, so a read needs
// nothing else from the End. A Link is its arena pointer, two int32
// register indices and one pointer to the fault state a healthy wire does
// not have; its placement index is the arena's owner entry for its A→B
// register. On a 4Ki-endpoint network there are 57,344 Links, and every
// router port and endpoint lane holds an End by value, so a word more on
// either is megabytes (docs/KERNEL.md).
func TestLayoutPinEndAndLink(t *testing.T) {
	const word = unsafe.Sizeof(uintptr(0))
	if size := unsafe.Sizeof(End{}); size != word+8 {
		t.Errorf("End is %d bytes, want one word and two int32s (%d)", size, word+8)
	}
	if size := unsafe.Sizeof(Link{}); size != 2*word+8 {
		t.Errorf("Link is %d bytes, want two words and two int32s (%d)", size, 2*word+8)
	}
	if size := unsafe.Sizeof(reg{}); size != 8 {
		t.Errorf("reg is %d bytes, want 8 (eight registers a line)", size)
	}
}
