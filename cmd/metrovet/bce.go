package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// The -bce mode is metrovet's bounds gate: it asks gc's SSA backend
// which bounds checks it actually managed to eliminate. Every check
// that survives compilation of a hot-path package is a branch executed
// each simulated cycle, so the surviving set is pinned in
// docs/bce_allowlist.txt and CI fails when it grows — a change that
// silently defeats bounds-check elimination has to be either
// restructured or explicitly accepted by regenerating the list.

// bcePackages are the per-cycle hot-path packages: everything executed
// on every simulated clock edge of every router, link, and endpoint.
// Cold-path packages (netsim construction, telemetry export, the CLIs)
// are deliberately out of scope — a bounds check there costs nothing.
var bcePackages = []string{
	"./internal/word",
	"./internal/link",
	"./internal/core",
	"./internal/nic",
	"./internal/cascade",
	"./internal/kernel",
}

// bceCheck is one surviving bounds check: a module-relative position
// plus the SSA op the compiler left behind.
type bceCheck struct {
	pos  string // file:line:col, slash-separated, module-relative
	kind string // IsInBounds or IsSliceInBounds
}

func (c bceCheck) String() string { return c.pos + " " + c.kind }

// bceDiagRe matches the compiler's -d=ssa/check_bce output, e.g.
//
//	internal/core/router.go:123:14: Found IsInBounds
var bceDiagRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): Found (IsInBounds|IsSliceInBounds)$`)

// runBCE executes the bounds-check-elimination gate and exits the
// process: 0 when the surviving checks match the allowlist byte for
// byte, 1 on any drift, 2 when the build fails or the allowlist is
// missing. With write set it regenerates the allowlist instead.
func runBCE(root, allowlistPath string, write bool) {
	checks, err := bceSurviving(root)
	if err != nil {
		fatal(err)
	}
	if !filepath.IsAbs(allowlistPath) {
		allowlistPath = filepath.Join(root, allowlistPath)
	}
	rel := allowlistPath
	if r, err := filepath.Rel(root, allowlistPath); err == nil && !strings.HasPrefix(r, "..") {
		rel = filepath.ToSlash(r)
	}

	if write {
		if err := writeBCEAllowlist(allowlistPath, checks); err != nil {
			fatal(err)
		}
		fmt.Printf("metrovet: bce: wrote %d surviving bounds check(s) to %s\n", len(checks), rel)
		return
	}

	want, err := readBCEAllowlist(allowlistPath)
	if err != nil {
		if os.IsNotExist(err) {
			fatal(fmt.Errorf("bce: allowlist %s does not exist; generate it with -bce -bce-write", rel))
		}
		fatal(err)
	}

	newChecks, stale := diffBCE(want, checks)
	if len(newChecks) == 0 && len(stale) == 0 {
		fmt.Printf("metrovet: bce: %d surviving bounds check(s) across %d hot-path package(s) match %s\n",
			len(checks), len(bcePackages), rel)
		return
	}
	for _, c := range newChecks {
		fmt.Fprintf(os.Stderr, "metrovet: bce: new bounds check survives compilation: %s\n", c)
	}
	for _, c := range stale {
		fmt.Fprintf(os.Stderr, "metrovet: bce: stale allowlist entry (check no longer emitted): %s\n", c)
	}
	fmt.Fprintf(os.Stderr, "metrovet: bce: hot-path bounds checks drifted from %s; restructure the indexing so the compiler can eliminate the check, or regenerate with -bce -bce-write and review the new cost\n", rel)
	os.Exit(1)
}

// bceSurviving compiles the hot-path packages with the SSA backend's
// check_bce debug pass and returns every bounds check that survived,
// sorted by position. The diagnostics are part of the compiler's cached
// output, so warm rebuilds replay them byte for byte.
func bceSurviving(root string) ([]bceCheck, error) {
	args := append([]string{"build", "-gcflags=-d=ssa/check_bce"}, bcePackages...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	runErr := cmd.Run()

	var checks []bceCheck
	var unrecognized []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line == "#" || strings.HasPrefix(line, "# ") {
			continue // package banner lines ("# metro/internal/core")
		}
		m := bceDiagRe.FindStringSubmatch(line)
		if m == nil {
			unrecognized = append(unrecognized, line)
			continue
		}
		pos := filepath.ToSlash(m[1])
		if filepath.IsAbs(m[1]) {
			if r, err := filepath.Rel(root, m[1]); err == nil {
				pos = filepath.ToSlash(r)
			}
		}
		checks = append(checks, bceCheck{pos: pos + ":" + m[2] + ":" + m[3], kind: m[4]})
	}
	if runErr != nil {
		return nil, fmt.Errorf("bce: go build failed: %v\n%s", runErr, stderr.String())
	}
	if len(unrecognized) > 0 {
		return nil, fmt.Errorf("bce: unrecognized compiler output (toolchain drift?):\n%s",
			strings.Join(unrecognized, "\n"))
	}
	sort.Slice(checks, func(i, j int) bool {
		if checks[i].pos != checks[j].pos {
			return bcePosLess(checks[i].pos, checks[j].pos)
		}
		return checks[i].kind < checks[j].kind
	})
	return checks, nil
}

// bcePosLess orders file:line:col strings by file, then numerically by
// line and column, so the allowlist reads in source order rather than
// "10" sorting before "9".
func bcePosLess(a, b string) bool {
	fa, la, ca := splitPos(a)
	fb, lb, cb := splitPos(b)
	if fa != fb {
		return fa < fb
	}
	if la != lb {
		return la < lb
	}
	return ca < cb
}

func splitPos(p string) (file string, line, col int) {
	i := strings.LastIndexByte(p, ':')
	j := strings.LastIndexByte(p[:i], ':')
	file = p[:j]
	fmt.Sscanf(p[j+1:i], "%d", &line)
	fmt.Sscanf(p[i+1:], "%d", &col)
	return
}

const bceHeader = `# metrovet -bce allowlist: bounds checks the Go compiler could NOT
# eliminate on the per-cycle hot path (internal/word, link, core, nic,
# cascade), as reported by -gcflags=-d=ssa/check_bce. Every entry is a
# conditional branch executed each simulated cycle.
#
# The gate fails in both directions: a NEW entry means a hot-path change
# defeated bounds-check elimination (restructure the indexing, or accept
# the cost by regenerating); a STALE entry means the list no longer
# describes reality (regenerate so it does). Line numbers shift with any
# edit to these files — regeneration is expected and cheap; the review
# burden is only the net change in check COUNT.
#
# Regenerate: go run ./cmd/metrovet -bce -bce-write
#
# Format: file:line:col kind   (IsInBounds | IsSliceInBounds)
`

func writeBCEAllowlist(path string, checks []bceCheck) error {
	var b strings.Builder
	b.WriteString(bceHeader)
	b.WriteString("\n")
	for _, c := range checks {
		b.WriteString(c.String())
		b.WriteString("\n")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// readBCEAllowlist parses an allowlist file: comment and blank lines are
// skipped, every other line is "pos kind".
func readBCEAllowlist(path string) ([]bceCheck, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var checks []bceCheck
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pos, kind, ok := strings.Cut(line, " ")
		if !ok || (kind != "IsInBounds" && kind != "IsSliceInBounds") {
			return nil, fmt.Errorf("bce: %s:%d: malformed allowlist line %q", path, i+1, line)
		}
		checks = append(checks, bceCheck{pos: pos, kind: kind})
	}
	return checks, nil
}

// diffBCE returns the surviving checks absent from the allowlist and
// the allowlist entries no longer emitted by the compiler.
func diffBCE(want, got []bceCheck) (newChecks, stale []bceCheck) {
	wantSet := make(map[bceCheck]bool, len(want))
	for _, c := range want {
		wantSet[c] = true
	}
	gotSet := make(map[bceCheck]bool, len(got))
	for _, c := range got {
		gotSet[c] = true
		if !wantSet[c] {
			newChecks = append(newChecks, c)
		}
	}
	for _, c := range want {
		if !gotSet[c] {
			stale = append(stale, c)
		}
	}
	return newChecks, stale
}
