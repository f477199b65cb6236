package metrofuzz

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"metro/internal/nic"
)

// TestRunAllocBudget pins what a direct two-leg Run allocates, in bytes and
// in objects: the Figure 1 burst of TestParallelDifferentialWorkers with
// the inline primary leg and a leg partitioned across two workers (two
// Builds, both cycle loops, the oracle battery and the differential). The
// best of three runs is taken. A Run needs 92.2-100.1 KB in 730-859
// objects when the legs' ledgers and traffic sources and the networks'
// message records and assembly buffers come back from the pools the run
// before released, and 143.2-144.4 KB in 1,130-1,154 when some are found
// in the other processor's private pool slot, which sync.Pool does not
// share (with every pool empty it needs about 210 KB in 1,800). Each Build
// allocates 3,072 B less (24 4x4 routers, 128 B of buffer sets each) than
// while every router kept a buffer set per forward port and per closer
// slot rather than one per backward port, when the modes were
// 98.2-108.9 KB in 729-831 objects and 146.4-153.4 KB in 1,036-1,171;
// the upper mode's ceiling is that range's top less the 6,144 B of two
// Builds, plus 10%. It needed
// 100.3-106.3 KB in 922-1,033 objects, and 149.1-155.5 KB in
// 1,232-1,379, while every delivered payload was unpacked into a slice
// of its own rather than carved from a chunk its network's endpoints
// share. It needed
// 234.2-234.8 KB in 1,994-1,997 while every leg built its oracles' maps
// and ledgers afresh and every network its records. Each ceiling is the
// upper mode plus 10%.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const ceiling, objects = 162_000, 1_289 // per Run
	s := Scenario{
		Preset: "fig1", Width: 8, DataPipe: 1, LinkDelay: 1, CascadeWidth: 1,
		FastReclaim: true, NetSeed: 21, RetryLimit: 100, ListenTimeout: 200,
		Workers: 2, Traffic: Burst, TrafficSeed: 31, Messages: 48,
		PayloadBytes: 16, InjectCycles: 1,
	}
	best, fewest := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep := Run(s, Hooks{})
		runtime.ReadMemStats(&after)
		if rep.Failed() {
			t.Fatalf("run %d: %v", run, rep.Failures)
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	t.Logf("a two-leg Run allocated %d bytes in %d objects (ceilings %d, %d)", best, fewest, ceiling, objects)
	if best > ceiling {
		t.Errorf("a two-leg Run allocated %d bytes, over the %d-byte budget: does a leg rebuy what the last one released?", best, ceiling)
	}
	if fewest > objects {
		t.Errorf("a two-leg Run allocated %d objects, over the budget of %d: is an oracle building a map per leg again?", fewest, objects)
	}
}

// TestSameResultMatchesDeepEqual holds sameResult, the differential
// oracle's comparison, to reflect.DeepEqual: every field of nic.Result,
// found by reflection, is perturbed in turn, the byte slices also between
// nil and empty, and the two must agree on each pair. A field added to
// nic.Result fails here until sameResult compares it.
func TestSameResultMatchesDeepEqual(t *testing.T) {
	base := func() nic.Result {
		return nic.Result{
			Msg:       nic.Message{ID: 7, Src: 1, Dest: 2, Payload: []byte{1, 2, 3}, Created: 5},
			Delivered: true, Reply: []byte{9, 8}, Retries: 3, BlockedFast: 4,
			BlockedDetailed: 5, LastBlockedStage: 1, ChecksumFailures: 6, Timeouts: 7,
			SuspectStage: 2, Injected: 11, Done: 19,
		}
	}
	check := func(name string, a, b nic.Result) {
		t.Helper()
		if got, want := sameResult(&a, &b), reflect.DeepEqual(a, b); got != want {
			t.Errorf("%s: sameResult %v, reflect.DeepEqual %v", name, got, want)
		}
	}
	check("identical", base(), base())
	var leaves [][]int
	var walk func(typ reflect.Type, path []int)
	walk = func(typ reflect.Type, path []int) {
		for i := range typ.NumField() {
			p := append(append([]int(nil), path...), i)
			if f := typ.Field(i); f.Type.Kind() == reflect.Struct {
				walk(f.Type, p)
			} else {
				leaves = append(leaves, p)
			}
		}
	}
	walk(reflect.TypeOf(nic.Result{}), nil)
	for _, path := range leaves {
		name := reflect.TypeOf(nic.Result{}).FieldByIndex(path).Name
		field := func(r *nic.Result) reflect.Value { return reflect.ValueOf(r).Elem().FieldByIndex(path) }
		a, b := base(), base()
		switch v := field(&b); v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
			check(name, a, b)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
			check(name, a, b)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
			check(name, a, b)
		case reflect.Slice:
			if v.Type().Elem().Kind() != reflect.Uint8 {
				t.Fatalf("field %s is a %s: teach this test to perturb it", name, v.Type())
			}
			variants := map[string][]byte{
				"nil": nil, "empty": {}, "same": {1, 2, 3}, "altered": {1, 2, 4}, "longer": {1, 2, 3, 0},
			}
			for an, av := range variants {
				for bn, bv := range variants {
					x, y := base(), base()
					field(&x).SetBytes(av)
					field(&y).SetBytes(bv)
					check(name+" "+an+" vs "+bn, x, y)
				}
			}
		default:
			t.Fatalf("field %s is a %s: teach this test to perturb it", name, v.Type())
		}
	}
	if len(leaves) < 16 {
		t.Fatalf("walked %d fields of nic.Result, want at least the 16 it had when this test was written", len(leaves))
	}
}
