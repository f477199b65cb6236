package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoLoader builds a Loader rooted at the module root (two levels up from
// this package's directory).
func repoLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

var update = flag.Bool("update", false, "rewrite docs/statemachines from the extracted machines")

// TestStateMachinesMatchGolden extracts every protocol state machine from
// the live sources and diffs it against the checked-in spec under
// docs/statemachines. A diff means the protocol implementation changed:
// regenerate with `go test ./internal/analysis -run
// TestStateMachinesMatchGolden -update` and review the transition-level
// change.
func TestStateMachinesMatchGolden(t *testing.T) {
	l := repoLoader(t)
	for _, spec := range DefaultMachines() {
		t.Run(spec.Label(), func(t *testing.T) {
			pkgs, err := l.Load(spec.Pattern)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkgs) != 1 {
				t.Fatalf("pattern %s matched %d packages", spec.Pattern, len(pkgs))
			}
			m, err := ExtractMachine(pkgs[0], spec.Type)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Transitions) == 0 {
				t.Fatalf("no transitions extracted for %s", spec.Label())
			}
			path := filepath.Join("..", "..", "docs", "statemachines", spec.FileName())
			got := m.Render(spec.Label())
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d transitions)", path, len(m.Transitions))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden table (regenerate with -update): %v", err)
			}
			if diffs := DiffTables(string(want), got); len(diffs) > 0 {
				t.Errorf("extracted %s machine differs from docs/statemachines/%s:\n  %s\n"+
					"regenerate with `go test ./internal/analysis -run TestStateMachinesMatchGolden -update` and review",
					spec.Label(), spec.FileName(), strings.Join(diffs, "\n  "))
			}
		})
	}
}

// ieee1149Table is the complete IEEE 1149.1-1990 TAP controller state
// diagram: for every state, the successor for TMS=0 and TMS=1. Transcribed
// independently from the standard's Figure 5-1, not from the simulator.
var ieee1149Table = []struct {
	from string
	tms0 string
	tms1 string
}{
	{"TestLogicReset", "RunTestIdle", "TestLogicReset"},
	{"RunTestIdle", "RunTestIdle", "SelectDRScan"},
	{"SelectDRScan", "CaptureDR", "SelectIRScan"},
	{"CaptureDR", "ShiftDR", "Exit1DR"},
	{"ShiftDR", "ShiftDR", "Exit1DR"},
	{"Exit1DR", "PauseDR", "UpdateDR"},
	{"PauseDR", "PauseDR", "Exit2DR"},
	{"Exit2DR", "ShiftDR", "UpdateDR"},
	{"UpdateDR", "RunTestIdle", "SelectDRScan"},
	{"SelectIRScan", "CaptureIR", "TestLogicReset"},
	{"CaptureIR", "ShiftIR", "Exit1IR"},
	{"ShiftIR", "ShiftIR", "Exit1IR"},
	{"Exit1IR", "PauseIR", "UpdateIR"},
	{"PauseIR", "PauseIR", "Exit2IR"},
	{"Exit2IR", "ShiftIR", "UpdateIR"},
	{"UpdateIR", "RunTestIdle", "SelectDRScan"},
}

// TestExtractedTAPMachineMatchesIEEE1149 checks the machine extracted from
// scan.State.Next against the full 16-state IEEE 1149.1 state diagram: all
// 32 (state, TMS) transitions must be present with the correct guard, and
// no extracted guarded transition may contradict the standard.
func TestExtractedTAPMachineMatchesIEEE1149(t *testing.T) {
	l := repoLoader(t)
	pkgs, err := l.Load("./internal/scan")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ExtractMachine(pkgs[0], "State")
	if err != nil {
		t.Fatal(err)
	}
	// Index extracted transitions by (from, guard).
	type key struct{ from, guard string }
	got := make(map[key]string)
	for _, tr := range m.Transitions {
		if tr.From == "*" {
			// The extractor also records State.Next's structural fallback
			// (the trailing return TestLogicReset); the standard's table
			// is fully covered by the guarded rows.
			continue
		}
		k := key{tr.From, tr.Guard}
		if prev, dup := got[k]; dup && prev != tr.Next {
			t.Errorf("conflicting transitions from %s under %q: %s vs %s",
				tr.From, tr.Guard, prev, tr.Next)
		}
		got[k] = tr.Next
	}
	if len(ieee1149Table) != 16 {
		t.Fatalf("reference table has %d states, want 16", len(ieee1149Table))
	}
	for _, row := range ieee1149Table {
		if next := got[key{row.from, "!(tms)"}]; next != row.tms0 {
			t.Errorf("%s with TMS=0: extracted %q, IEEE 1149.1 says %q", row.from, next, row.tms0)
		}
		if next := got[key{row.from, "tms"}]; next != row.tms1 {
			t.Errorf("%s with TMS=1: extracted %q, IEEE 1149.1 says %q", row.from, next, row.tms1)
		}
	}
	if want := 2 * len(ieee1149Table); len(got) != want {
		t.Errorf("extracted %d guarded transitions, want exactly %d (16 states x 2 TMS values)", len(got), want)
	}
}
