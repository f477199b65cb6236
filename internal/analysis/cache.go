package analysis

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The analysis cache. The key is a content hash, never a timestamp: the
// cached result is valid iff the bytes it was computed from are
// identical, so a warm run is guaranteed to reproduce the cold run's
// findings (the test suite asserts this equality).
//
// There is one tier. The program key hashes every matched package's
// sources plus go.mod and the rule-set identity; when it matches, the
// cached findings are served without parsing or type-checking anything,
// and when it does not, the whole tree is analyzed again. A finer tier
// would have nothing to save: after any edit the loader still
// type-checks every package, which is ~99% of a run.

// cacheVersion invalidates every cache file when the schema or the
// analysis semantics change shape.
const cacheVersion = 2

// cacheFileName is the single JSON document kept in the cache directory.
const cacheFileName = "metrovet-cache.json"

// cacheFile is the on-disk cache document.
type cacheFile struct {
	Version    int    `json:"version"`
	RuleHash   string `json:"rule_hash"`
	ProgramKey string `json:"program_key"`
	// Findings is the complete whole-tree result (program and package
	// rules merged, sorted), valid while ProgramKey matches.
	Findings []FindingJSON `json:"findings"`
}

// ruleHash identifies the rule set: names, IDs and docs. Rule-logic
// changes that keep all three are caught by CI's cache key (which hashes
// the analyzer sources); this in-file hash catches rule additions,
// renames and doc edits even with a stale external key.
func ruleHash(rules []*Analyzer) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d", cacheVersion)
	for _, a := range rules {
		fmt.Fprintf(h, "|%s=%s:%s", RuleID(a.Name), a.Name, a.Doc)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// dirHash hashes one package directory's Go sources (names and bytes,
// sorted by name; the same files the loader would parse).
func dirHash(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// programKey combines the rule hash, go.mod, and every package's dir
// hash into the whole-tree cache key.
func programKey(root, rules string, dirKeys map[string]string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00", rules)
	if data, err := os.ReadFile(filepath.Join(root, "go.mod")); err == nil {
		h.Write(data)
	}
	paths := make([]string, 0, len(dirKeys))
	for p := range dirKeys {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(h, "%s=%s\x00", p, dirKeys[p])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// readCache loads the cache document, returning an empty one on any
// miss or decode problem (a corrupt cache must never fail the run).
func readCache(dir string) *cacheFile {
	data, err := os.ReadFile(filepath.Join(dir, cacheFileName))
	if err != nil {
		return &cacheFile{}
	}
	var onDisk cacheFile
	if json.Unmarshal(data, &onDisk) != nil || onDisk.Version != cacheVersion {
		return &cacheFile{}
	}
	return &onDisk
}

// writeCache persists the cache document. Errors are returned so the
// caller can warn, but a failed write only costs the next run time.
func writeCache(dir string, cf *cacheFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(cf, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := filepath.Join(dir, cacheFileName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, cacheFileName))
}

// decodeFindings converts cached findings back to the in-memory form.
func decodeFindings(fjs []FindingJSON) []Finding {
	out := make([]Finding, 0, len(fjs))
	for _, fj := range fjs {
		out = append(out, findingFromJSON(fj))
	}
	return out
}

// encodeFindings converts findings to the cached form.
func encodeFindings(fs []Finding) []FindingJSON {
	out := make([]FindingJSON, 0, len(fs))
	for _, f := range fs {
		out = append(out, findingToJSON(f))
	}
	return out
}
