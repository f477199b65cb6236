package metrofuzz

import (
	"strings"
	"testing"

	"metro/internal/nic"
)

// TestDecodeSpecStrict pins the service-facing contract: exactly one
// clean mf1 line decodes; any surrounding or embedded garbage — the
// bytes a CLI-buffered reader would silently strip or a Sscanf-style
// parser would silently ignore — is refused.
func TestDecodeSpecStrict(t *testing.T) {
	valid := EncodeSpec(tinyScenario())
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"valid line", valid, true},
		{"empty", "", false},
		{"trailing newline", valid + "\n", false},
		{"trailing CRLF", valid + "\r\n", false},
		{"trailing space", valid + " ", false},
		{"leading space", " " + valid, false},
		{"second line", valid + "\njunk", false},
		{"embedded tab", strings.Replace(valid, ";w=", ";\tw=", 1), false},
		{"unknown version", "mf2" + strings.TrimPrefix(valid, "mf1"), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := DecodeSpecStrict(c.in)
			if c.ok {
				if err != nil {
					t.Fatalf("DecodeSpecStrict(%q) = %v, want ok", c.in, err)
				}
				if got := EncodeSpec(s); got != valid {
					t.Fatalf("strict decode drifted: got %q want %q", got, valid)
				}
			} else if err == nil {
				t.Fatalf("DecodeSpecStrict(%q) accepted, want rejection", c.in)
			}
		})
	}

	// The lenient CLI path still trims what a shell pipeline adds...
	if _, err := DecodeSpec(valid + "\n"); err != nil {
		t.Fatalf("DecodeSpec must keep trimming a trailing newline: %v", err)
	}
	// ...but neither entry point may accept trailing garbage inside a
	// field: Sscanf's %d used to stop at the first non-digit and report
	// success, so these decoded as their garbage-free prefixes.
	for _, bad := range []string{
		strings.Replace(valid, "4x1:", "4x1junk:", 1),
		strings.Replace(valid, "2.1.2,", "2.1.2junk,", 1),
		strings.Replace(valid, "4x1:", "4junkx1:", 1),
	} {
		if _, err := DecodeSpec(bad); err == nil {
			t.Errorf("DecodeSpec(%q) accepted trailing garbage inside topo", bad)
		}
	}
}

// TestRunCanceled proves the Progress hook's cancellation path: a hook
// that immediately asks to stop yields a Canceled report with the
// bookkeeping failure, not an oracle verdict.
func TestRunCanceled(t *testing.T) {
	calls := 0
	rep := Run(tinyScenario(), Hooks{
		ProgressPeriod: 1,
		Progress: func(cycle uint64, offered, completed, delivered int) bool {
			calls++
			return calls < 3
		},
	})
	if !rep.Canceled {
		t.Fatalf("report not marked canceled: %+v", rep)
	}
	if len(rep.Failures) != 1 || rep.Failures[0].Oracle != "canceled" {
		t.Fatalf("want a single canceled failure, got %v", rep.Failures)
	}
}

// TestRunProgressObserved proves the hook streams monotone cycle stamps,
// running counts that match a recount and final counts matching the
// report, without perturbing the run.
func TestRunProgressObserved(t *testing.T) {
	// Serial-only: each leg restarts its cycle counter, so monotonicity
	// is a per-leg property.
	scn := tinyScenario()
	scn.Workers = 0
	base := Run(scn, Hooks{})
	if base.Failed() {
		t.Fatalf("baseline failed: %v", base.Failures)
	}
	var cycles []uint64
	var lastCompleted, lastDelivered int
	rep := Run(scn, Hooks{
		ProgressPeriod: 64,
		Progress: func(cycle uint64, offered, completed, delivered int) bool {
			if n := len(cycles); n > 0 && cycle < cycles[n-1] {
				t.Fatalf("progress cycle went backwards: %d after %d", cycle, cycles[n-1])
			}
			cycles = append(cycles, cycle)
			lastCompleted, lastDelivered = completed, delivered
			return true
		},
	})
	if rep.Failed() {
		t.Fatalf("observed run failed: %v", rep.Failures)
	}
	if rep.Cycles != base.Cycles || rep.Offered != base.Offered || rep.Delivered != base.Delivered {
		t.Fatalf("Progress hook perturbed the run: %d/%d/%d vs baseline %d/%d/%d",
			rep.Cycles, rep.Offered, rep.Delivered, base.Cycles, base.Offered, base.Delivered)
	}
	if len(cycles) < 2 {
		t.Fatalf("want multiple progress callbacks, got %d", len(cycles))
	}
	if lastCompleted != rep.Offered || lastDelivered != rep.Delivered {
		t.Fatalf("final progress counts %d/%d, report %d/%d",
			lastCompleted, lastDelivered, rep.Offered, rep.Delivered)
	}

	// At period 1 (what the serve tests run) every frame's counts equal
	// a recount over the results seen so far: DropResult sees each
	// completion before the harness records it, and drops none.
	var seen []nic.Result
	frames := 0
	rep = Run(scn, Hooks{
		ProgressPeriod: 1,
		DropResult: func(res nic.Result) bool {
			seen = append(seen, res)
			return false
		},
		Progress: func(cycle uint64, offered, completed, delivered int) bool {
			frames++
			recount := 0
			for _, res := range seen {
				if res.Delivered {
					recount++
				}
			}
			if completed != len(seen) || delivered != recount {
				t.Fatalf("cycle %d: frame says %d completed / %d delivered, recount %d / %d",
					cycle, completed, delivered, len(seen), recount)
			}
			return true
		},
	})
	if rep.Failed() {
		t.Fatalf("period-1 run failed: %v", rep.Failures)
	}
	if uint64(frames) < rep.Cycles {
		t.Fatalf("period 1 over %d cycles produced %d frames", rep.Cycles, frames)
	}
}
