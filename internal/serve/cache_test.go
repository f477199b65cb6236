package serve

import (
	"fmt"
	"strings"
	"testing"

	"metro/internal/metrofuzz"
)

func body(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

// TestCacheLRUEviction pins the eviction discipline: least-recently-used
// entries go first, a Get promotes, and the newest entry always lands
// even when it alone exceeds the budget.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(300)
	c.Put("a", body(100, 'a'))
	c.Put("b", body(100, 'b'))
	c.Put("c", body(100, 'c'))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted within budget")
	}
	// a is now MRU; d's arrival must evict b, the LRU.
	c.Put("d", body(100, 'd'))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived past the byte budget")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted, want only b gone", k)
		}
	}
	// An oversized entry still lands, alone.
	c.Put("huge", body(1000, 'h'))
	if _, ok := c.Get("huge"); !ok {
		t.Fatal("oversized entry rejected; Put must always land the newest entry")
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 1000 {
		t.Fatalf("after oversized Put: %+v, want 1 entry of 1000 bytes", st)
	}
	if st.Evictions == 0 {
		t.Fatal("eviction counter never advanced")
	}
}

// TestCacheReplace asserts re-putting a key replaces the body and keeps
// the byte accounting consistent.
func TestCacheReplace(t *testing.T) {
	c := NewCache(1000)
	c.Put("k", body(100, 'x'))
	c.Put("k", body(40, 'y'))
	got, ok := c.Get("k")
	if !ok || len(got) != 40 || got[0] != 'y' {
		t.Fatalf("replace failed: ok=%v len=%d", ok, len(got))
	}
	if st := c.Stats(); st.Bytes != 40 || st.Entries != 1 {
		t.Fatalf("accounting after replace: %+v", st)
	}
}

// TestKeyDeterminism is the cache-key regression test: the content
// address must be a pure function of the scenario, not of the spec
// line's field order, and must separate every dimension that changes
// the response body.
func TestKeyDeterminism(t *testing.T) {
	scn := metrofuzz.Generate(1)
	canonical := metrofuzz.EncodeSpec(scn)

	// Every rotation of the field list decodes to the same scenario and
	// therefore the same key.
	fields := strings.Split(canonical, ";")
	if fields[0] != "mf1" {
		t.Fatalf("canonical spec does not start with the magic: %q", canonical)
	}
	want := Key(canonical, EngineReference, false)
	for r := 1; r < len(fields)-1; r++ {
		perm := append([]string{"mf1"}, fields[1+r:]...)
		perm = append(perm, fields[1:1+r]...)
		line := strings.Join(perm, ";")
		got, err := metrofuzz.DecodeSpecStrict(line)
		if err != nil {
			t.Fatalf("rotation %d: %v\nline: %q", r, err, line)
		}
		if k := Key(metrofuzz.EncodeSpec(got), EngineReference, false); k != want {
			t.Fatalf("rotation %d changed the key:\n%s\n%s", r, canonical, metrofuzz.EncodeSpec(got))
		}
	}

	// Distinct option axes are distinct addresses.
	keys := map[string]string{
		"ref":          Key(canonical, EngineReference, false),
		"kernel":       Key(canonical, EngineKernel, false),
		"ref+trace":    Key(canonical, EngineReference, true),
		"kernel+trace": Key(canonical, EngineKernel, true),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Fatalf("options %s and %s collide on %s", prev, name, k)
		}
		seen[k] = name
	}

	// Distinct scenarios are distinct addresses.
	other := metrofuzz.EncodeSpec(metrofuzz.Generate(2))
	if Key(other, EngineReference, false) == want {
		t.Fatal("distinct specs collide")
	}

	// The engine/trace separator cannot be confused with spec content:
	// keys embed NUL delimiters and specs cannot contain NUL (strict
	// decode rejects control bytes).
	if _, err := metrofuzz.DecodeSpecStrict(canonical + "\x00"); err == nil {
		t.Fatal("strict decode accepted a NUL byte; key delimiting depends on rejecting it")
	}
}

// FuzzCanonicalKey fuzzes the canonical-hashing invariant against the
// spec-codec corpus: any line the strict decoder accepts must produce
// the same cache key as its canonical re-encoding — field order, noise
// fields, and formatting must never split the cache.
func FuzzCanonicalKey(f *testing.F) {
	// The same seeds as metrofuzz's FuzzSpecCodec, so the corpora explore
	// the same grammar corners.
	f.Add(metrofuzz.EncodeSpec(metrofuzz.Generate(0)))
	f.Add(metrofuzz.EncodeSpec(metrofuzz.Generate(3)))
	f.Add("mf1;topo=16x2:2.2.4,2.2.4,4.1.4@99;w=8")
	f.Add("mf1;faults=rk@1:0.0|sb@2:0.1.0.3")
	f.Add("mf1;w=8;topo=fig1")
	f.Fuzz(func(t *testing.T, line string) {
		s, err := metrofuzz.DecodeSpecStrict(line)
		if err != nil {
			return // rejected lines have no key
		}
		canonical := metrofuzz.EncodeSpec(s)
		k1 := Key(canonical, EngineReference, false)
		// Round-tripping the canonical form must be a fixed point.
		again, err := metrofuzz.DecodeSpecStrict(canonical)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v (%q)", err, canonical)
		}
		if Key(metrofuzz.EncodeSpec(again), EngineReference, false) != k1 {
			t.Fatalf("key not stable across canonical round-trip for %q", line)
		}
	})
}

// TestKeyRevisionSeparation documents that the engine revision is part
// of the address: the same spec under a different revision string would
// miss rather than serve stale bytes. (The constant itself cannot be
// varied here, so the test hashes the construction directly.)
func TestKeyRevisionSeparation(t *testing.T) {
	spec := metrofuzz.EncodeSpec(metrofuzz.Generate(1))
	k := Key(spec, EngineReference, false)
	if len(k) != 64 {
		t.Fatalf("key %q is not a hex SHA-256", k)
	}
	if !strings.Contains(fmt.Sprintf("%q", EngineRevision), "metro-") {
		t.Fatalf("EngineRevision %q lost its naming convention", EngineRevision)
	}
}
