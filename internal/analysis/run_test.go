package analysis

import (
	"bytes"
	"os"
	"path/filepath"
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

// TestRunTreeDeterministic: two runs over the same tree, each with its
// own loader and importer, encode to the same -json bytes, and the paths
// in them are module-relative.
func TestRunTreeDeterministic(t *testing.T) {
	root := scaffoldModule(t)
	var docs [2]bytes.Buffer
	for i := range docs {
		res, err := RunTree(root, TreeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Findings) == 0 {
			t.Fatal("fixture module should produce findings")
		}
		for _, f := range res.Findings {
			if filepath.IsAbs(f.Pos.Filename) {
				t.Fatalf("finding path not module-relative: %s", f.Pos.Filename)
			}
		}
		if err := EncodeJSON(&docs[i], res.Findings); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(docs[0].Bytes(), docs[1].Bytes()) {
		t.Fatalf("-json differs between runs:\n%s\n%s", &docs[0], &docs[1])
	}
}
