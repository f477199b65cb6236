package telemetry

import (
	"testing"
	"unsafe"
)

// TestLayoutPinEvent pins the sizes the recorder's memory budget rests
// on: DefaultCapacity's 40 B an event and metroserve's 640 KiB trace ring
// are these structs times their counts. Source packs its kind, lane,
// stage and index into 8 bytes on every GOARCH. Event is two uint64
// stamps, a Source, a kind and two int32 payloads: 36 bytes of fields,
// 40 where a uint64 aligns to 8 (every 64-bit target) and 36 where it
// aligns to 4 (386). A field added to either fails here before it shows
// as megabytes of ring.
func TestLayoutPinEvent(t *testing.T) {
	if size := unsafe.Sizeof(Source{}); size != 8 {
		t.Errorf("unsafe.Sizeof(Source{}) = %d, want 8", size)
	}
	want := uintptr(40)
	if unsafe.Alignof(Event{}.Cycle) == 4 {
		want = 36
	}
	if size := unsafe.Sizeof(Event{}); size != want {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want %d", size, want)
	}
}
