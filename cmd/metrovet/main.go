// Command metrovet is the repository's determinism and simulator-
// discipline static-analysis pass (see docs/DETERMINISM.md).
//
// Usage:
//
//	go run ./cmd/metrovet [flags] [./... | ./dir | ./dir/...]
//
// It walks the requested packages, runs every analyzer in
// internal/analysis, prints findings as "file:line: rule-id: message"
// and exits nonzero if any finding is not inline-suppressed. CI runs it
// alongside go vet.
//
// Module packages are parsed and type-checked from source; the standard
// library is imported from the compiler's export data, which `go list
// -export` locates, so a go toolchain must be on PATH for every run and
// a cold GOCACHE pays one standard-library build (the one `go build
// ./...` pays) before the first.
//
// Flags:
//
//	-json                 emit findings as the metrovet JSON report
//	-rules                print the rule set and exit
//	-machines             print the extracted protocol state machines
//	-write-machines dir   write the extracted machine tables to dir
//	-check-machines dir   diff the extracted tables against dir, exit 1
//	                      on any difference (the CI golden gate)
//	-bce                  compile the hot-path packages with the SSA
//	                      backend's check_bce debug pass and diff the
//	                      surviving bounds checks against the allowlist
//	                      (the CI bounds-check-elimination gate)
//	-bce-allowlist file   the allowlist -bce diffs against
//	                      (default docs/bce_allowlist.txt)
//	-bce-write            regenerate the allowlist from the current
//	                      compiler output instead of diffing
//	-v                    also print type-checker diagnostics (normally
//	                      silent: a tree that builds has none)
//
// Exit codes: 0 clean, 1 findings, 2 usage or internal error. The -json
// document is byte-stable for a given tree and is pinned by a golden
// test.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"metro/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as the metrovet JSON report")
	listRules := flag.Bool("rules", false, "print the rule set and exit")
	printMachines := flag.Bool("machines", false, "print the extracted protocol state machines")
	writeMachines := flag.String("write-machines", "", "write extracted machine tables to `dir`")
	checkMachines := flag.String("check-machines", "", "diff extracted tables against `dir`, exit 1 on any difference")
	bce := flag.Bool("bce", false, "diff surviving hot-path bounds checks against the allowlist")
	bceAllowlist := flag.String("bce-allowlist", "docs/bce_allowlist.txt", "allowlist `file` for -bce")
	bceWrite := flag.Bool("bce-write", false, "regenerate the -bce allowlist from current compiler output")
	verbose := flag.Bool("v", false, "print type-checker diagnostics")
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

	if *printMachines || *writeMachines != "" || *checkMachines != "" {
		loader, err := analysis.NewLoader(root)
		if err != nil {
			fatal(err)
		}
		runMachines(loader, *printMachines, *writeMachines, *checkMachines)
		return
	}

	res, err := analysis.RunTree(root, analysis.TreeOptions{Patterns: flag.Args()})
	if err != nil {
		fatal(err)
	}
	if *verbose {
		for _, terr := range res.TypeErrs {
			fmt.Fprintf(os.Stderr, "metrovet: typecheck: %s\n", terr)
		}
	}
	findings := res.Findings

	if *jsonOut {
		if err := analysis.EncodeJSON(os.Stdout, findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "metrovet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// runMachines extracts the protocol state machines (analysis.DefaultMachines)
// and prints, writes, or golden-diffs their transition tables.
func runMachines(loader *analysis.Loader, print bool, writeDir, checkDir string) {
	bad := false
	for _, spec := range analysis.DefaultMachines() {
		pkgs, err := loader.Load(spec.Pattern)
		if err != nil {
			fatal(err)
		}
		m, err := analysis.ExtractMachine(pkgs[0], spec.Type)
		if err != nil {
			fatal(err)
		}
		text := m.Render(spec.Label())
		switch {
		case writeDir != "":
			path := filepath.Join(writeDir, spec.FileName())
			if err := os.MkdirAll(writeDir, 0o755); err != nil {
				fatal(err)
			}
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("metrovet: wrote %s (%d transitions)\n", path, len(m.Transitions))
		case checkDir != "":
			path := filepath.Join(checkDir, spec.FileName())
			want, err := os.ReadFile(path)
			if err != nil {
				fatal(err)
			}
			if diff := analysis.DiffTables(string(want), text); diff != nil {
				bad = true
				fmt.Fprintf(os.Stderr, "metrovet: %s: extracted machine differs from %s:\n", spec.Label(), path)
				for _, l := range diff {
					fmt.Fprintf(os.Stderr, "  %s\n", l)
				}
			}
		default:
			fmt.Print(text)
			fmt.Println()
		}
	}
	if bad {
		fmt.Fprintln(os.Stderr, "metrovet: state-machine tables are stale; regenerate with -write-machines and review the protocol change")
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
