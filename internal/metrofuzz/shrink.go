package metrofuzz

import "metro/internal/topo"

// Shrink greedily minimizes a failing scenario: it tries a ladder of
// simplifying transformations — no parallel leg, fewer faults, fewer
// messages, shorter schedules, smaller payloads, narrower cascades,
// smaller topologies — and adopts any candidate that still fails any
// oracle, restarting the ladder after each success until a fixpoint or
// the run budget is exhausted. Knobs that guarantee convergence
// (RetryLimit, ListenTimeout) are deliberately never reduced: shrinking
// them below the generator's calibrated floors could manufacture a
// delivery failure that the original scenario never had, turning the
// repro into a false accusation.
//
// The returned report is the failing run of the minimal scenario. If
// the input scenario does not fail, it is returned unchanged with its
// (passing) report.
func Shrink(s Scenario, h Hooks, maxRuns int) (Scenario, *Report) {
	if maxRuns <= 0 {
		maxRuns = 150
	}
	best := Run(s, h)
	runs := 1
	if !best.Failed() {
		return s, best
	}
	for runs < maxRuns {
		improved := false
		for _, cand := range shrinkCandidates(best.Scenario) {
			if cand.Validate() != nil {
				continue
			}
			rep := Run(cand, h)
			runs++
			if rep.Failed() {
				best = rep
				improved = true
				break // restart the ladder from the simplified scenario
			}
			if runs >= maxRuns {
				break
			}
		}
		if !improved {
			break
		}
	}
	return best.Scenario, best
}

// tinySpec is the smallest interesting network: 4 endpoints, one link
// each, two radix-2 stages.
func tinySpec() topo.Spec {
	return topo.Spec{
		Endpoints:     4,
		EndpointLinks: 1,
		Stages: []topo.StageSpec{
			{Inputs: 2, Radix: 2, Dilation: 1},
			{Inputs: 2, Radix: 2, Dilation: 1},
		},
	}
}

// shrinkCandidates lists simplifications of s, most aggressive first.
// Candidates that break Scenario.Validate (a fault event aimed at a
// router the smaller topology lacks, say) are filtered by the caller.
func shrinkCandidates(s Scenario) []Scenario {
	var out []Scenario
	add := func(c Scenario) { out = append(out, c) }

	// Drop the parallel leg: most failures don't need workers, and one
	// leg fewer halves the cost of every later candidate.
	if s.Workers > 0 {
		c := s
		c.Workers = 0
		add(c)
	}
	// Fault schedule: halves first, then single events.
	if n := len(s.Faults); n > 1 {
		c := s
		c.Faults = append(s.Faults[:0:0], s.Faults[:n/2]...)
		add(c)
		c = s
		c.Faults = append(s.Faults[:0:0], s.Faults[n/2:]...)
		add(c)
	}
	for i := range s.Faults {
		c := s
		c.Faults = append(s.Faults[:0:0], s.Faults[:i]...)
		c.Faults = append(c.Faults, s.Faults[i+1:]...)
		add(c)
	}
	// Less traffic, shorter schedule.
	if s.Messages > 1 {
		c := s
		c.Messages = s.Messages / 2
		add(c)
	}
	if s.InjectCycles > 1 {
		c := s
		c.InjectCycles = max(1, s.InjectCycles/2)
		add(c)
	}
	// Simpler traffic model and payload.
	if s.Traffic != Burst {
		c := s
		c.Traffic = Burst
		c.RatePerMille = 0
		c.Outstanding = 0
		c.ThinkMax = 0
		c.InjectCycles = 1
		add(c)
	}
	if s.PayloadBytes > MinPayloadBytes {
		c := s
		c.PayloadBytes = MinPayloadBytes
		add(c)
	}
	// Narrower hardware.
	if s.CascadeWidth > 1 {
		c := s
		c.CascadeWidth = 1
		add(c)
	}
	if s.MaxActiveSenders != 0 {
		c := s
		c.MaxActiveSenders = 0
		add(c)
	}
	// Topology ladder, large to small. Fault events that no longer fit
	// are dropped with the swap — a topology change invalidates their
	// coordinates anyway.
	for _, preset := range smallerTopologies(s) {
		c := s
		c.Preset = preset
		c.Custom = topo.Spec{}
		if preset == "" {
			c.Custom = tinySpec()
		}
		if len(c.Faults) > 0 {
			c.Faults = nil
		}
		add(c)
	}
	return out
}

// smallerTopologies returns the presets below s's topology on the size
// ladder ("" stands for tinySpec).
func smallerTopologies(s Scenario) []string {
	ladder := []string{"net32r8", "net32", "fig3", "fig1"}
	pos := -1
	for i, p := range ladder {
		if s.Preset == p {
			pos = i
		}
	}
	if s.Preset == "" {
		// Custom spec: try the canonical small nets unless already tiny.
		if spec, err := s.Spec(); err == nil && spec.Endpoints <= 4 {
			return nil
		}
		return []string{"fig1", ""}
	}
	var out []string
	out = append(out, ladder[pos+1:]...)
	out = append(out, "") // tinySpec
	return out
}
