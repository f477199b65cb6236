package core

import (
	"testing"
	"unsafe"
)

// wordSize is the platform's pointer size: the layout pins hold on every
// GOARCH the tests run on, stated in words where a field is a pointer or a
// slice header.
const wordSize = unsafe.Sizeof(uintptr(0))

// TestLayoutPinHotHeader pins the router's hot header: first in the struct
// and within one 64-byte cache line (exactly one on a 64-bit platform), so
// an idle router's Eval touches one line of Router state (plus the input
// registers its views point at). A field added to the header, or ahead of
// it, fails here loudly; move it below the header unless every idle cycle
// really reads it.
func TestLayoutPinHotHeader(t *testing.T) {
	var r Router
	if off := unsafe.Offsetof(r.hotHeader); off != 0 {
		t.Errorf("hotHeader sits at offset %d of Router, want 0", off)
	}
	// Two masks and two slice headers.
	if size, want := unsafe.Sizeof(r.hotHeader), 16+6*wordSize; size != want || size > 64 {
		t.Errorf("hotHeader is %d bytes, want %d, at most 64 (one cache line)", size, want)
	}
	if wordSize != 8 {
		return // the line-alignment and size pins below are the 64-bit layout's
	}
	// The allocator's size classes keep 64-byte alignment only for objects
	// whose size is a multiple of 64; at any other size half the routers'
	// headers would straddle two lines.
	if size := unsafe.Sizeof(r); size%64 != 0 {
		t.Errorf("Router is %d bytes, want a multiple of 64 so heap-allocated routers stay line-aligned", size)
	}
	// Four lines: the Config and Settings a router shares with its stage
	// are one pointer away, not in the struct (docs/KERNEL.md has the byte
	// table).
	if size := unsafe.Sizeof(r); size > 256 {
		t.Errorf("Router is %d bytes, want at most 256", size)
	}
}

// TestLayoutPinPortState pins the per-port state: a forward port is half a
// cache line and a closer its deadline, its 12-byte flow and two port
// bytes, so the arrays NewRouter makes of them stay a few lines per router
// (docs/KERNEL.md has the byte table). A field that grows either, or a
// reordering that brings back the closer's padding, fails here; byte-sized
// port numbers and cursors are what Config.Validate's MaxPorts bound and
// injWords allow.
func TestLayoutPinPortState(t *testing.T) {
	if size := unsafe.Sizeof(fwdPort{}); size > 32 {
		t.Errorf("fwdPort is %d bytes, want at most 32 (half a cache line)", size)
	}
	if size, want := unsafe.Sizeof(closer{}), wordSize+16; size != want {
		t.Errorf("closer is %d bytes, want %d (an int, a 12-byte flow and two port bytes)", size, want)
	}
}
