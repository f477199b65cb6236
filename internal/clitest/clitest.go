// Package clitest runs the repository's command-line tools as
// subprocesses and compares their output against golden files. Every
// cmd/ package pins its user-facing output with one of these tests, so
// format drift (column changes, renamed rows, nondeterministic
// ordering) shows up as a test failure instead of a surprise in a
// paper-reproduction script.
//
// Golden files live in each command's testdata/ directory and are
// rewritten with `go test ./cmd/... -update` after an intentional
// output change.
package clitest

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite CLI golden files from current output")

// Run builds metro/cmd/<tool> (once per test process) and executes it
// with args, returning the combined output and failing the test on a
// non-zero exit. Building rather than `go run` preserves the tool's
// real exit code — `go run` always exits 1 on child failure — and the
// module-qualified import path makes the invocation independent of the
// test's working directory.
func Run(t *testing.T, tool string, args ...string) []byte {
	t.Helper()
	return RunMain(t, "metro/cmd/"+tool, args...)
}

// RunMain is Run for the main package at import path pkg, such as
// metro/examples/quickstart.
func RunMain(t *testing.T, pkg string, args ...string) []byte {
	t.Helper()
	out, err := runTool(t, pkg, args...)
	if err != nil {
		t.Fatalf("%s %s: %v\noutput:\n%s", pkg, strings.Join(args, " "), err, out)
	}
	return out
}

// Stdout executes the tool and returns its standard output alone, for a
// tool whose stdout is a machine format; standard error is shown only
// when the tool fails.
func Stdout(t *testing.T, tool string, args ...string) []byte {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(binary(t, "metro/cmd/"+tool), args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("metro/cmd/%s %s: %v\nstderr:\n%s", tool, strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// ExitCode executes the tool and asserts its exit status, returning
// the combined output. Used to pin the documented failure-mode codes
// (e.g. metrofuzz exits 2 on a malformed -replay spec).
func ExitCode(t *testing.T, want int, tool string, args ...string) []byte {
	t.Helper()
	out, err := runTool(t, "metro/cmd/"+tool, args...)
	got := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("metro/cmd/%s: %v\noutput:\n%s", tool, err, out)
		}
		got = ee.ExitCode()
	}
	if got != want {
		t.Fatalf("metro/cmd/%s %s: exit %d, want %d\noutput:\n%s",
			tool, strings.Join(args, " "), got, want, out)
	}
	return out
}

// Rejects executes the tool with a flag value it cannot serve, given
// first in args, and asserts the usage failure: exit status 2 and one
// line of output that names that flag, with no goroutine trace. Like the
// goldens it execs a subprocess, so it is skipped under -short.
func Rejects(t *testing.T, tool string, args ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("execs a subprocess; skipped in -short mode")
	}
	out := ExitCode(t, 2, tool, args...)
	if bytes.Count(out, []byte("\n")) != 1 || !bytes.Contains(out, []byte(args[0])) ||
		bytes.Contains(out, []byte("goroutine")) {
		t.Fatalf("metro/cmd/%s %s: want one line naming %s, got:\n%s",
			tool, strings.Join(args, " "), args[0], out)
	}
}

// Golden runs the tool and compares its combined output against
// testdata/<name>.golden in the calling package, rewriting the file
// when -update is set. CLI golden tests compile and exec a
// subprocess, so they are skipped under -short.
func Golden(t *testing.T, name, tool string, args ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI golden test execs a subprocess; skipped in -short mode")
	}
	GoldenBytes(t, name, Run(t, tool, args...))
}

// GoldenBytes compares already-captured output against
// testdata/<name>.golden, for tests that post-process or compose tool
// invocations (e.g. metrosim -trace into a temp file, then metrotrace
// summarize it) before pinning the result.
func GoldenBytes(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (create it with `go test -run %s -update`): %v", path, t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: output drifted from %s:\n%s\nrerun with -update if the change is intentional",
			name, path, firstDivergence(want, got))
	}
}

// firstDivergence renders the first line where want and got differ,
// with one line of surrounding context — enough to see a column drift
// without dumping two full tables.
func firstDivergence(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		wl, gl := "<eof>", "<eof>"
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl, gl)
		}
	}
	return "outputs differ only in trailing bytes"
}

var builds struct {
	sync.Mutex
	dir  string
	done map[string]error
}

// binary builds the main package at import path pkg into a per-process
// temp directory the first time it is requested and returns the binary's
// path.
func binary(t *testing.T, pkg string) string {
	t.Helper()
	builds.Lock()
	defer builds.Unlock()
	if builds.done == nil {
		dir, err := os.MkdirTemp("", "clitest-*")
		if err != nil {
			t.Fatal(err)
		}
		builds.dir = dir
		builds.done = map[string]error{}
	}
	path := filepath.Join(builds.dir, strings.ReplaceAll(pkg, "/", "_"))
	if err, built := builds.done[pkg]; built {
		if err != nil {
			t.Fatalf("building %s failed earlier: %v", pkg, err)
		}
		return path
	}
	out, err := exec.Command("go", "build", "-o", path, pkg).CombinedOutput()
	if err != nil {
		err = fmt.Errorf("%v\n%s", err, out)
	}
	builds.done[pkg] = err
	if err != nil {
		t.Fatalf("go build %s: %v", pkg, err)
	}
	return path
}

func runTool(t *testing.T, pkg string, args ...string) ([]byte, error) {
	t.Helper()
	cmd := exec.Command(binary(t, pkg), args...)
	cmd.Env = os.Environ()
	return cmd.CombinedOutput()
}
