package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// scaffoldModule writes a small on-disk module for RunTree tests. The
// component's Eval allocates and writes package-level state, so several
// rules fire; the util package stays clean.
func scaffoldModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module metro\n\ngo 1.22\n")
	write("internal/comp/comp.go", `package comp

var total int

type C struct{ buf []int }

func (c *C) Eval(cycle uint64) {
	c.buf = make([]int, 4)
	total++
}

func (c *C) Commit(cycle uint64) {}
`)
	write("internal/util/util.go", `package util

// Add is pure and boring on purpose.
func Add(a, b int) int { return a + b }
`)
	return root
}

func TestRunTreeCacheWarmEqualsCold(t *testing.T) {
	root := scaffoldModule(t)
	cacheDir := filepath.Join(root, ".cache")

	cold, err := RunTree(root, TreeOptions{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if cold.FullHit {
		t.Fatal("first run cannot be a cache hit")
	}
	if len(cold.Findings) == 0 {
		t.Fatal("fixture module should produce findings")
	}
	for _, f := range cold.Findings {
		if filepath.IsAbs(f.Pos.Filename) {
			t.Fatalf("finding path not module-relative: %s", f.Pos.Filename)
		}
	}

	warm, err := RunTree(root, TreeOptions{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.FullHit {
		t.Fatal("unchanged tree should be a full cache hit")
	}
	if !reflect.DeepEqual(cold.Findings, warm.Findings) {
		t.Fatalf("warm findings differ from cold:\ncold: %v\nwarm: %v", cold.Findings, warm.Findings)
	}
	if warm.Key != cold.Key {
		t.Errorf("program key changed without edits: %s vs %s", cold.Key, warm.Key)
	}
}

func TestRunTreeCacheInvalidation(t *testing.T) {
	root := scaffoldModule(t)
	cacheDir := filepath.Join(root, ".cache")
	if _, err := RunTree(root, TreeOptions{CacheDir: cacheDir}); err != nil {
		t.Fatal(err)
	}

	// Touch one package: the run must not be a hit.
	compPath := filepath.Join(root, "internal", "comp", "comp.go")
	src, err := os.ReadFile(compPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(compPath, append(src, []byte("\n// edited\n")...), 0o644); err != nil {
		t.Fatal(err)
	}

	edited, err := RunTree(root, TreeOptions{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if edited.FullHit {
		t.Fatal("edited tree must not be a cache hit")
	}

	// And the result after the edit equals an uncached run (the cache can
	// never change what the analyzers report).
	bare, err := RunTree(root, TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(edited.Findings, bare.Findings) {
		t.Fatalf("cached run differs from uncached:\ncached: %v\nbare: %v", edited.Findings, bare.Findings)
	}
}

func TestRunTreeCorruptCacheIsIgnored(t *testing.T) {
	root := scaffoldModule(t)
	cacheDir := filepath.Join(root, ".cache")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cacheDir, cacheFileName), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := RunTree(root, TreeOptions{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if res.FullHit {
		t.Fatal("corrupt cache must not produce a hit")
	}
	if len(res.Findings) == 0 {
		t.Fatal("analysis should still run with a corrupt cache")
	}
}
