package metrofuzz

import (
	"strings"
	"testing"

	"metro/internal/netsim"
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
// that asks to stop yields a Canceled report with the bookkeeping
// failure, not an oracle verdict — whether it stops the primary leg or,
// returning false only after the primary leg's last frame, a replay.
func TestRunCanceled(t *testing.T) {
	// primaryFrames counts the calls the primary leg makes; Mutate marks
	// the build of each leg.
	legs, primaryFrames := 0, 0
	Run(tinyScenario(), Hooks{
		ProgressPeriod: 1,
		Mutate:         func(*netsim.Network) { legs++ },
		Progress: func(uint64, int, int, int) bool {
			if legs == 1 {
				primaryFrames++
			}
			return true
		},
	})
	for _, c := range []struct {
		name  string
		calls int // the calls the hook lets through before it asks to stop
		leg   string
	}{
		{"primary leg", 2, "cycle 2:"},
		{"after the primary leg", primaryFrames, "parallel leg: cycle 0:"},
	} {
		t.Run(c.name, func(t *testing.T) {
			calls := 0
			rep := Run(tinyScenario(), Hooks{
				ProgressPeriod: 1,
				Progress: func(uint64, int, int, int) bool {
					calls++
					return calls <= c.calls
				},
			})
			if !rep.Canceled {
				t.Fatalf("report not marked canceled: %+v", rep)
			}
			if len(rep.Failures) != 1 || rep.Failures[0].Oracle != "canceled" ||
				!strings.HasPrefix(rep.Failures[0].Detail, c.leg) {
				t.Fatalf("want a single canceled failure at %q, got %v", c.leg, rep.Failures)
			}
		})
	}
}

// progressFrame is one Progress call.
type progressFrame struct {
	cycle                         uint64
	offered, completed, delivered int
}

// TestRunProgressObserved proves the hook streams cycle stamps and
// running counts that never decrease across all legs, that each leg's
// last call carries the report's final cycle and counts, and that the
// primary leg's counts match a recount — without perturbing the run.
func TestRunProgressObserved(t *testing.T) {
	scn := Generate(0) // net32, wk=4: a parallel and a reference replay
	base := Run(scn, Hooks{KernelOracle: true})
	if base.Failed() {
		t.Fatalf("baseline failed: %v", base.Failures)
	}
	var frames []progressFrame
	var last []progressFrame // each leg's last call; Mutate marks each leg's build
	rep := Run(scn, Hooks{
		KernelOracle:   true,
		ProgressPeriod: 64,
		Mutate:         func(*netsim.Network) { last = append(last, progressFrame{}) },
		Progress: func(cycle uint64, offered, completed, delivered int) bool {
			f := progressFrame{cycle, offered, completed, delivered}
			if n := len(frames); n > 0 {
				if p := frames[n-1]; f.cycle < p.cycle || f.offered < p.offered ||
					f.completed < p.completed || f.delivered < p.delivered {
					t.Fatalf("leg %d: progress ran backwards: %+v after %+v", len(last), f, p)
				}
			}
			frames = append(frames, f)
			last[len(last)-1] = f
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
	if len(frames) < 2*len(last) {
		t.Fatalf("want multiple progress callbacks per leg, got %d over %d legs", len(frames), len(last))
	}
	want := progressFrame{rep.Cycles, rep.Offered, rep.Offered, rep.Delivered}
	if len(last) != 3 {
		t.Fatalf("want a primary leg and two replays, got %d legs", len(last))
	}
	for i, f := range last {
		if f != want {
			t.Fatalf("leg %d ended on %+v, report %+v", i, f, want)
		}
	}

	// At period 1 (what the serve tests run) every primary frame's counts
	// equal a recount over the results seen so far: DropResult sees each
	// completion before the harness records it, and drops none.
	var seen []nic.Result
	legs, primaryFrames := 0, 0
	rep = Run(scn, Hooks{
		ProgressPeriod: 1,
		Mutate:         func(*netsim.Network) { legs++ },
		DropResult: func(res nic.Result) bool {
			if legs == 1 {
				seen = append(seen, res)
			}
			return false
		},
		Progress: func(cycle uint64, offered, completed, delivered int) bool {
			if legs > 1 {
				return true
			}
			primaryFrames++
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
	if uint64(primaryFrames) < rep.Cycles {
		t.Fatalf("period 1 over %d cycles produced %d primary frames", rep.Cycles, primaryFrames)
	}
}
