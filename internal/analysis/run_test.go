package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scaffoldModule writes a small on-disk module for RunTree tests. The
// component's Eval allocates and writes package-level state, so several
// rules fire; the util package stays clean.
func scaffoldModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	writeFiles(t, root, map[string]string{
		"go.mod": "module metro\n\ngo 1.22\n",
		"internal/comp/comp.go": `package comp

var total int

type C struct{ buf []int }

func (c *C) Eval(cycle uint64) {
	c.buf = make([]int, 4)
	total++
}

func (c *C) Commit(cycle uint64) {}
`,
		"internal/util/util.go": `package util

// Add is pure and boring on purpose.
func Add(a, b int) int { return a + b }
`,
	})
	return root
}

// writeFiles writes each source under its slash-separated path in root.
func writeFiles(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunTreeDeterministic: two runs over the same tree, each with its
// own loader and importer, print the same finding lines, and the paths
// in them are module-relative.
func TestRunTreeDeterministic(t *testing.T) {
	root := scaffoldModule(t)
	var lines [2]strings.Builder
	for i := range lines {
		res, err := RunTree(root)
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
			lines[i].WriteString(f.String() + "\n")
		}
	}
	if lines[0].String() != lines[1].String() {
		t.Fatalf("findings differ between runs:\n%s\n%s", lines[0].String(), lines[1].String())
	}
}
