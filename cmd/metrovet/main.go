// Command metrovet is the repository's determinism and simulator-
// discipline static-analysis pass (see docs/DETERMINISM.md).
//
// Usage:
//
//	go run ./cmd/metrovet [flags] [packages]
//
// The packages are any go package patterns ("./...", "./internal/core",
// "metro/internal/..."), resolved in the module root; none means
// "./...". It loads the build `go list` describes for them, tests
// included, runs every analyzer in internal/analysis, prints findings as
// "file:line: rule-id: message" and exits nonzero if any finding is not
// inline-suppressed. A type error in any package the run loads is
// printed and exits 2: the rules are blind where types are missing. CI
// runs it alongside go vet. The protocol state machines are not its
// business: each is a transition table in its own package's tests,
// checked against the running code by `go test`.
//
// Module packages are parsed and type-checked from source, each test
// variant with the files and imports the go command gives it; the
// standard library is imported from the compiler's export data, which
// `go list -export` locates, so a go toolchain must be on PATH for every
// run and a cold GOCACHE pays one standard-library build (the one `go
// build ./...` pays) before the first.
//
// Flags:
//
//	-rules                print the rule set and exit
//	-bce                  compile the hot-path packages with the SSA
//	                      backend's check_bce debug pass and diff the
//	                      surviving bounds checks against the allowlist
//	                      (the CI bounds-check-elimination gate)
//	-bce-allowlist file   the allowlist -bce diffs against
//	                      (default docs/bce_allowlist.txt)
//	-bce-write            regenerate the allowlist from the current
//	                      compiler output instead of diffing
//
// Exit codes: 0 clean, 1 findings, 2 type errors, usage or internal
// error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"metro/internal/analysis"
)

func main() {
	listRules := flag.Bool("rules", false, "print the rule set and exit")
	bce := flag.Bool("bce", false, "diff surviving hot-path bounds checks against the allowlist")
	bceAllowlist := flag.String("bce-allowlist", "docs/bce_allowlist.txt", "allowlist `file` for -bce")
	bceWrite := flag.Bool("bce-write", false, "regenerate the -bce allowlist from current compiler output")
	flag.Parse()

	if *listRules {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-6s %-22s %s\n", analysis.RuleID(a.Name), a.Name, a.Doc)
		}
		return
	}

	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}

	if *bce || *bceWrite {
		runBCE(root, *bceAllowlist, *bceWrite)
		return
	}

	res, err := analysis.RunTree(root, flag.Args()...)
	if err != nil {
		fatal(err)
	}
	// A package that does not type-check leaves the rules blind where
	// its types are missing, so no run with type errors passes.
	for _, terr := range res.TypeErrs {
		fmt.Fprintf(os.Stderr, "metrovet: typecheck: %s\n", terr)
	}
	if len(res.TypeErrs) > 0 {
		os.Exit(2)
	}
	for _, f := range res.Findings {
		fmt.Println(f)
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "metrovet: %d finding(s)\n", len(res.Findings))
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the first go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("metrovet: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "metrovet:", err)
	os.Exit(2)
}
