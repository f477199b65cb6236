package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// goldenEntry pins what a workload's inputs and simulated outputs must
// be at seed 1: the digest (the ordered nic.Result stream on the sim
// workloads, the generated spec list on the serve workloads) and the
// modelled-hardware metrics, which are simulated time and repeat
// exactly.
type goldenEntry struct {
	Digest   string             `json:"digest"`
	Hardware map[string]float64 `json:"hardware,omitempty"`
}

// goldenFile maps "<workload>" (full size) and "<workload>.quick" to
// their entries.
type goldenFile map[string]goldenEntry

// goldenSeed is the only seed with pinned digests; every other seed is
// held to the structural checks alone.
const goldenSeed = 1

func loadGolden(path string) (goldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden file %s: %w", path, err)
	}
	return g, nil
}

func saveGolden(path string, g goldenFile) error {
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return fmt.Errorf("golden encode: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("golden dir: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("golden write: %w", err)
	}
	return nil
}

// checkGolden records this run's entry on the outcome and, at the
// golden seed, holds it to the pinned one. A mismatch is a semantics
// change: it belongs in its own benchmark issue that regenerates the
// goldens, never inside a change that claims a gain.
func (cfg runConfig) checkGolden(o *outcome, workload string, got goldenEntry) {
	key := workload
	if cfg.quick {
		key += ".quick"
	}
	o.goldenKey, o.golden = key, got
	if cfg.seed != goldenSeed || cfg.updateGolden {
		return
	}
	want, ok := cfg.golden[key]
	if !ok {
		o.problemf("no golden entry %q (run with -update-golden in a benchmark issue)", key)
		return
	}
	if got.Digest != want.Digest {
		o.problemf("golden digest mismatch for %s: got %s want %s", key, got.Digest, want.Digest)
	}
	names := make([]string, 0, len(want.Hardware))
	for n := range want.Hardware {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if got.Hardware[n] != want.Hardware[n] {
			o.problemf("modelled-hardware metric %s moved: got %v want %v", n, got.Hardware[n], want.Hardware[n])
		}
	}
}
