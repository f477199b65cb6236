package link

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestLayoutPinEndAndLink pins the two link values, in words so that the
// pins hold on 32- and 64-bit platforms alike. An End is its arena pointer
// and two int32 register indices, the register it reads and the one it
// stages into: the fault byte lives in the register, so a read needs
// nothing else from the End. A Link is its arena pointer, its two int32
// register indices and its int placement index; no arena stores one, but netsim's reference stepper keeps every link of a
// network, and every router port and endpoint lane holds an End by value,
// so a word more on either is megabytes on a 4Ki-endpoint network
// (docs/KERNEL.md).
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

// TestArenaFootprint pins what an arena of 4,096 links costs once placed:
// its delay+1 planes of two 8-byte registers a link, plus at most 256 B in
// all for its header and plane table. An arena holds nothing per link or
// per register besides its planes; the links are values their placer
// keeps, and fault state exists only while a wire is faulty. Until the
// arena shed its table of links and its per-register owner entry, it cost
// 32 B more a link (24 B on a 32-bit platform).
func TestArenaFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures are inflated under the race detector")
	}
	const links, slack = 4096, 256
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, delay := range []int{1, 2} {
		planes := uint64((delay + 1) * 2 * 8 * links)
		// The least of three runs, so that an allocation by another
		// goroutine cannot fail the pin.
		least := ^uint64(0)
		for run := 0; run < 3; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			a := NewArena(delay, links)
			for i := 0; i < links; i++ {
				a.Place(2*i, 2*i+1)
			}
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(a)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("delay %d: %d B for %d links, %d B of planes", delay, least, links, planes)
		if least < planes || least > planes+slack {
			t.Errorf("delay %d: an arena of %d links allocates %d B, want its %d B of planes plus at most %d B", delay, links, least, planes, slack)
		}
	}
}
