// Package metrofuzz is the model-based randomized conformance harness
// for the METRO simulator: it generates whole simulation scenarios —
// topology, engine configuration, traffic schedule and dynamic fault
// schedule — from a single seed, executes them under a battery of
// behavioural oracles (exactly-once delivery with payload checksums,
// message conservation, bounded progress, per-cycle router invariants,
// and bit-for-bit serial/parallel differential equality), and shrinks
// any failing scenario to a minimal replayable spec.
//
// The paper's central claim is behavioural: source-responsible endpoints
// plus dilated crossbars deliver every message exactly once under
// arbitrary congestion and dynamic faults (paper, Sections 4-5). The
// hand-picked workloads of the experiment suite sample that space;
// metrofuzz walks it adversarially. Every scenario is a pure function of
// its seed, so a failure anywhere — CI, a nightly fuzz run, a developer
// laptop — reproduces everywhere from a one-line spec.
//
// See docs/FUZZING.md for the oracle catalogue and the replay/shrink
// workflow.
package metrofuzz

import (
	"fmt"
	"strconv"
	"strings"

	"metro/internal/fault"
	"metro/internal/topo"
)

// TrafficKind selects the shape of a scenario's workload schedule.
type TrafficKind uint8

const (
	// Burst offers every message up front: the maximal-contention
	// pattern, all endpoints fighting for paths at once.
	Burst TrafficKind = iota
	// Bernoulli is open-loop injection: each endpoint independently
	// generates a message with fixed probability every cycle, queueing
	// behind its backlog (load beyond saturation builds queues).
	Bernoulli
	// Stall is the closed-loop (processor-stall) model: each endpoint
	// keeps a bounded number of messages outstanding and waits a think
	// time after each completion.
	Stall
)

// String returns the spec mnemonic for the traffic kind.
func (k TrafficKind) String() string {
	switch k {
	case Burst:
		return "burst"
	case Bernoulli:
		return "bernoulli"
	case Stall:
		return "stall"
	default:
		return fmt.Sprintf("TrafficKind(%d)", uint8(k))
	}
}

func trafficKindOf(s string) (TrafficKind, error) {
	switch s {
	case "burst":
		return Burst, nil
	case "bernoulli":
		return Bernoulli, nil
	case "stall":
		return Stall, nil
	default:
		return 0, fmt.Errorf("metrofuzz: unknown traffic kind %q", s)
	}
}

// Scenario is one complete, self-contained simulation configuration: the
// value the generator produces, the runner executes, the shrinker
// minimizes, and the spec codec round-trips. Every field is plain data —
// two runs of the same Scenario are bit-for-bit identical.
type Scenario struct {
	// Preset names a canonical topology ("fig1", "fig3", "net32",
	// "net32r8"); empty means Custom carries a generated spec.
	Preset string
	// Custom is the explicit topology when Preset is empty.
	Custom topo.Spec

	// Network build parameters (see netsim.Params).
	Width            int
	HeaderWords      int
	DataPipe         int
	LinkDelay        int
	CascadeWidth     int
	FastReclaim      bool
	FirstFree        bool
	NetSeed          int64
	MaxActiveSenders int
	RetryLimit       int
	ListenTimeout    int

	// Workers is the worker count for the parallel leg of the
	// differential oracle; 0 runs the inline primary leg only (no
	// differential). The primary leg always runs at Workers 1.
	Workers int

	// Traffic schedule.
	Traffic      TrafficKind
	TrafficSeed  int64
	Messages     int // total messages the schedule may offer
	RatePerMille int // Bernoulli per-endpoint per-cycle probability, in 1/1000
	Outstanding  int // Stall: in-flight bound per endpoint
	ThinkMax     int // Stall: think-time upper bound after each completion
	PayloadBytes int // fixed payload size; >= MinPayloadBytes
	InjectCycles int // cycles during which the schedule offers messages

	// Faults is the dynamic fault schedule, applied by fault.Injector.
	Faults fault.Plan
}

// MinPayloadBytes is the smallest payload the harness can tag: a 4-byte
// message ID, source, destination, declared length, and an XOR guard
// byte (see payload.go).
const MinPayloadBytes = 8

// Spec returns the scenario's topology, resolving presets.
func (s Scenario) Spec() (topo.Spec, error) {
	if s.Preset == "" {
		return s.Custom, nil
	}
	spec, ok := topo.Preset(s.Preset)
	if !ok {
		return topo.Spec{}, fmt.Errorf("metrofuzz: unknown topology preset %q", s.Preset)
	}
	return spec, nil
}

// Validate checks that the scenario is executable: the topology builds
// and every knob is inside the range the runner's oracle budget
// computation assumes.
func (s Scenario) Validate() error {
	spec, err := s.Spec()
	if err != nil {
		return err
	}
	if err := topo.Validate(spec); err != nil {
		return err
	}
	switch {
	case s.Width < 2 || s.Width > 16:
		return fmt.Errorf("metrofuzz: width %d outside [2,16]", s.Width)
	case s.HeaderWords < 0 || s.HeaderWords > 2:
		return fmt.Errorf("metrofuzz: header words %d outside [0,2]", s.HeaderWords)
	case s.DataPipe < 1 || s.DataPipe > 4:
		return fmt.Errorf("metrofuzz: data pipe %d outside [1,4]", s.DataPipe)
	case s.LinkDelay < 1 || s.LinkDelay > 4:
		return fmt.Errorf("metrofuzz: link delay %d outside [1,4]", s.LinkDelay)
	case s.CascadeWidth < 1 || s.CascadeWidth > 2:
		return fmt.Errorf("metrofuzz: cascade width %d outside [1,2]", s.CascadeWidth)
	case s.Workers < 0 || s.Workers > 8:
		return fmt.Errorf("metrofuzz: workers %d outside [0,8]", s.Workers)
	case s.MaxActiveSenders < 0 || s.MaxActiveSenders > spec.EndpointLinks:
		return fmt.Errorf("metrofuzz: max active senders %d outside [0,%d]", s.MaxActiveSenders, spec.EndpointLinks)
	case s.RetryLimit < 8 || s.RetryLimit > 1000:
		return fmt.Errorf("metrofuzz: retry limit %d outside [8,1000]", s.RetryLimit)
	case s.ListenTimeout < 50 || s.ListenTimeout > 2000:
		return fmt.Errorf("metrofuzz: listen timeout %d outside [50,2000]", s.ListenTimeout)
	case s.Messages < 1 || s.Messages > 2000:
		return fmt.Errorf("metrofuzz: message budget %d outside [1,2000]", s.Messages)
	case s.RatePerMille < 0 || s.RatePerMille > 1000:
		return fmt.Errorf("metrofuzz: rate %d outside [0,1000] per mille", s.RatePerMille)
	case s.Traffic == Bernoulli && s.RatePerMille == 0:
		return fmt.Errorf("metrofuzz: bernoulli traffic with zero rate")
	case s.Traffic == Stall && s.Outstanding < 1:
		return fmt.Errorf("metrofuzz: stall traffic with outstanding %d", s.Outstanding)
	case s.ThinkMax < 0 || s.ThinkMax > 1000:
		return fmt.Errorf("metrofuzz: think max %d outside [0,1000]", s.ThinkMax)
	case s.PayloadBytes < MinPayloadBytes || s.PayloadBytes > 64:
		return fmt.Errorf("metrofuzz: payload %d bytes outside [%d,64]", s.PayloadBytes, MinPayloadBytes)
	case s.InjectCycles < 1 || s.InjectCycles > 20000:
		return fmt.Errorf("metrofuzz: inject cycles %d outside [1,20000]", s.InjectCycles)
	}
	if len(s.Faults) > 0 {
		t, err := topo.Build(spec)
		if err != nil {
			return err
		}
		for i, e := range s.Faults {
			if err := validFault(t, e); err != nil {
				return fmt.Errorf("metrofuzz: fault %d: %w", i, err)
			}
		}
	}
	return nil
}

// validFault checks a fault event against the elaborated topology.
func validFault(t *topo.Topology, e fault.Event) error {
	spec := t.Spec
	if e.Stage < 0 {
		// Endpoint injection-link fault.
		if e.Index < 0 || e.Index >= spec.Endpoints || e.Port < 0 || e.Port >= spec.EndpointLinks {
			return fmt.Errorf("injection link ep%d.%d out of range", e.Index, e.Port)
		}
		if e.Kind == fault.RouterKill || e.Kind == fault.PortDisable {
			return fmt.Errorf("%v cannot target an injection link", e.Kind)
		}
		return nil
	}
	if e.Stage >= len(spec.Stages) {
		return fmt.Errorf("stage %d out of range", e.Stage)
	}
	if e.Index < 0 || e.Index >= t.RoutersPerStage[e.Stage] {
		return fmt.Errorf("router s%dr%d out of range", e.Stage, e.Index)
	}
	switch e.Kind {
	case fault.RouterKill:
		// Port unused.
	case fault.LinkKill, fault.LinkStuckBit, fault.PortDisable:
		if e.Port < 0 || e.Port >= spec.Stages[e.Stage].Outputs() {
			return fmt.Errorf("port %d out of range for stage %d", e.Port, e.Stage)
		}
	default:
		return fmt.Errorf("unknown fault kind %d", int(e.Kind))
	}
	return nil
}

// --- spec codec --------------------------------------------------------
//
// A scenario serializes to one line of key=value pairs:
//
//	mf1;topo=fig1;w=8;hw=0;dp=1;vtd=1;cas=1;fast=1;ff=0;wk=4;ns=7;
//	mas=1;retry=200;lt=300;tr=burst;ts=11;msgs=64;rate=0;out=0;think=0;
//	pb=12;ic=600;faults=rk@100:1.2|lk@200:0.3.1
//
// Custom topologies encode as endpoints x links : stage list, each stage
// radix.dilation.inputs:
//
//	topo=16x2:2.2.4,2.2.4,4.1.4
//
// The format is the `metrofuzz -replay` currency, so it must round-trip
// exactly (TestSpecRoundTrip) and stay stable across versions: new keys
// may be added with defaults, existing keys never change meaning.

const specVersion = "mf1"

// EncodeSpec renders the scenario as a one-line replayable spec.
func EncodeSpec(s Scenario) string {
	var b strings.Builder
	b.WriteString(specVersion)
	add := func(k, v string) {
		b.WriteByte(';')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
	}
	addInt := func(k string, v int) { add(k, strconv.Itoa(v)) }
	if s.Preset != "" {
		add("topo", s.Preset)
	} else {
		add("topo", encodeTopo(s.Custom))
	}
	addInt("w", s.Width)
	addInt("hw", s.HeaderWords)
	addInt("dp", s.DataPipe)
	addInt("vtd", s.LinkDelay)
	addInt("cas", s.CascadeWidth)
	addInt("fast", boolInt(s.FastReclaim))
	addInt("ff", boolInt(s.FirstFree))
	addInt("wk", s.Workers)
	add("ns", strconv.FormatInt(s.NetSeed, 10))
	addInt("mas", s.MaxActiveSenders)
	addInt("retry", s.RetryLimit)
	addInt("lt", s.ListenTimeout)
	add("tr", s.Traffic.String())
	add("ts", strconv.FormatInt(s.TrafficSeed, 10))
	addInt("msgs", s.Messages)
	addInt("rate", s.RatePerMille)
	addInt("out", s.Outstanding)
	addInt("think", s.ThinkMax)
	addInt("pb", s.PayloadBytes)
	addInt("ic", s.InjectCycles)
	if len(s.Faults) > 0 {
		add("faults", encodeFaults(s.Faults))
	}
	return b.String()
}

// DecodeSpec parses a one-line spec back into a Scenario and validates
// it. Surrounding whitespace is trimmed — this is the CLI `-replay`
// entry point, where the shell or a copy-paste may add a trailing
// newline. Machine submitters (metroserve) use DecodeSpecStrict.
func DecodeSpec(spec string) (Scenario, error) {
	var s Scenario
	parts := strings.Split(strings.TrimSpace(spec), ";")
	if len(parts) == 0 || parts[0] != specVersion {
		return s, fmt.Errorf("metrofuzz: spec must start with %q", specVersion)
	}
	for _, p := range parts[1:] {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return s, fmt.Errorf("metrofuzz: malformed field %q", p)
		}
		if err := decodeField(&s, k, v); err != nil {
			return s, err
		}
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// DecodeSpecStrict is the library entry point for machine-submitted
// specs: it accepts exactly one spec line and nothing else. Where
// DecodeSpec trims surrounding whitespace (the CLI-buffered `-replay`
// path), strict mode refuses any whitespace or control byte anywhere —
// the mf1 grammar contains none, so their presence means trailing
// garbage after (or wrapped around) a valid line, and a service must
// reject it rather than silently simulate a prefix of what the client
// sent.
func DecodeSpecStrict(spec string) (Scenario, error) {
	if spec == "" {
		return Scenario{}, fmt.Errorf("metrofuzz: empty spec")
	}
	if i := strings.IndexFunc(spec, func(r rune) bool { return r <= ' ' || r == 0x7f }); i >= 0 {
		return Scenario{}, fmt.Errorf("metrofuzz: spec contains whitespace or control byte at offset %d; the mf1 grammar has none (trailing garbage?)", i)
	}
	return DecodeSpec(spec)
}

func decodeField(s *Scenario, k, v string) error {
	atoi := func() (int, error) {
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("metrofuzz: field %s: %w", k, err)
		}
		return n, nil
	}
	seed := func() (int64, error) {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("metrofuzz: field %s: %w", k, err)
		}
		return n, nil
	}
	var err error
	switch k {
	case "topo":
		if strings.Contains(v, ":") {
			s.Preset = ""
			s.Custom, err = decodeTopo(v)
		} else {
			s.Preset = v
		}
	case "w":
		s.Width, err = atoi()
	case "hw":
		s.HeaderWords, err = atoi()
	case "dp":
		s.DataPipe, err = atoi()
	case "vtd":
		s.LinkDelay, err = atoi()
	case "cas":
		s.CascadeWidth, err = atoi()
	case "fast":
		var n int
		n, err = atoi()
		s.FastReclaim = n != 0
	case "ff":
		var n int
		n, err = atoi()
		s.FirstFree = n != 0
	case "wk":
		s.Workers, err = atoi()
	case "ns":
		s.NetSeed, err = seed()
	case "mas":
		s.MaxActiveSenders, err = atoi()
	case "retry":
		s.RetryLimit, err = atoi()
	case "lt":
		s.ListenTimeout, err = atoi()
	case "tr":
		s.Traffic, err = trafficKindOf(v)
	case "ts":
		s.TrafficSeed, err = seed()
	case "msgs":
		s.Messages, err = atoi()
	case "rate":
		s.RatePerMille, err = atoi()
	case "out":
		s.Outstanding, err = atoi()
	case "think":
		s.ThinkMax, err = atoi()
	case "pb":
		s.PayloadBytes, err = atoi()
	case "ic":
		s.InjectCycles, err = atoi()
	case "faults":
		s.Faults, err = decodeFaults(v)
	default:
		return fmt.Errorf("metrofuzz: unknown spec field %q", k)
	}
	return err
}

// encodeTopo renders a custom spec as endpoints x links : stages, each
// stage radix.dilation.inputs, with an optional @seed suffix for random
// wiring.
func encodeTopo(spec topo.Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d:", spec.Endpoints, spec.EndpointLinks)
	for i, st := range spec.Stages {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d.%d.%d", st.Radix, st.Dilation, st.Inputs)
	}
	if spec.Wiring == topo.WiringRandom {
		fmt.Fprintf(&b, "@%d", spec.Seed)
	}
	return b.String()
}

func decodeTopo(v string) (topo.Spec, error) {
	var spec topo.Spec
	var err error
	head, stages, ok := strings.Cut(v, ":")
	if !ok {
		return spec, fmt.Errorf("metrofuzz: malformed topology %q", v)
	}
	if at := strings.IndexByte(stages, '@'); at >= 0 {
		seed, err := strconv.ParseInt(stages[at+1:], 10, 64)
		if err != nil {
			return spec, fmt.Errorf("metrofuzz: topology wiring seed: %w", err)
		}
		spec.Wiring = topo.WiringRandom
		spec.Seed = seed
		stages = stages[:at]
	}
	// Parse with strconv, not Sscanf: %d stops at the first non-digit
	// and Sscanf reports success with input left over, so "16x2junk"
	// used to decode as 16x2 and silently drop the garbage — and a spec
	// that decodes must mean exactly what its bytes say (it is the
	// replay and cache-key currency).
	ep, links, ok := strings.Cut(head, "x")
	if !ok {
		return spec, fmt.Errorf("metrofuzz: malformed topology head %q", head)
	}
	if spec.Endpoints, err = strconv.Atoi(ep); err != nil {
		return spec, fmt.Errorf("metrofuzz: malformed topology head %q", head)
	}
	if spec.EndpointLinks, err = strconv.Atoi(links); err != nil {
		return spec, fmt.Errorf("metrofuzz: malformed topology head %q", head)
	}
	for _, st := range strings.Split(stages, ",") {
		fields := strings.Split(st, ".")
		if len(fields) != 3 {
			return spec, fmt.Errorf("metrofuzz: malformed stage %q", st)
		}
		var ss topo.StageSpec
		for i, dst := range []*int{&ss.Radix, &ss.Dilation, &ss.Inputs} {
			if *dst, err = strconv.Atoi(fields[i]); err != nil {
				return spec, fmt.Errorf("metrofuzz: malformed stage %q", st)
			}
		}
		spec.Stages = append(spec.Stages, ss)
	}
	return spec, nil
}

// encodeFaults renders a plan as |-separated events:
// kind@cycle:stage.index[.port[.bit]].
func encodeFaults(plan fault.Plan) string {
	var b strings.Builder
	for i, e := range plan {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%s@%d:%d.%d", faultCode(e.Kind), e.At, e.Stage, e.Index)
		switch e.Kind {
		case fault.RouterKill:
			// No port.
		case fault.LinkStuckBit:
			fmt.Fprintf(&b, ".%d.%d", e.Port, e.Bit)
		case fault.LinkKill, fault.PortDisable:
			fmt.Fprintf(&b, ".%d", e.Port)
		}
	}
	return b.String()
}

func decodeFaults(v string) (fault.Plan, error) {
	var plan fault.Plan
	for _, item := range strings.Split(v, "|") {
		code, rest, ok := strings.Cut(item, "@")
		if !ok {
			return nil, fmt.Errorf("metrofuzz: malformed fault %q", item)
		}
		kind, err := faultKindOf(code)
		if err != nil {
			return nil, err
		}
		at, loc, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("metrofuzz: malformed fault %q", item)
		}
		cycle, err := strconv.ParseUint(at, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metrofuzz: fault cycle in %q: %w", item, err)
		}
		fields := strings.Split(loc, ".")
		want := map[fault.Kind]int{
			fault.RouterKill: 2, fault.LinkKill: 3,
			fault.PortDisable: 3, fault.LinkStuckBit: 4,
		}[kind]
		if len(fields) != want {
			return nil, fmt.Errorf("metrofuzz: fault %q wants %d location fields", item, want)
		}
		nums := make([]int, len(fields))
		for i, f := range fields {
			nums[i], err = strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("metrofuzz: fault %q: %w", item, err)
			}
		}
		e := fault.Event{At: cycle, Kind: kind, Stage: nums[0], Index: nums[1]}
		if len(nums) > 2 {
			e.Port = nums[2]
		}
		if len(nums) > 3 {
			e.Bit = uint(nums[3])
		}
		plan = append(plan, e)
	}
	return plan, nil
}

func faultCode(k fault.Kind) string {
	switch k {
	case fault.RouterKill:
		return "rk"
	case fault.LinkKill:
		return "lk"
	case fault.PortDisable:
		return "pd"
	case fault.LinkStuckBit:
		return "sb"
	default:
		return fmt.Sprintf("k%d", int(k))
	}
}

func faultKindOf(code string) (fault.Kind, error) {
	switch code {
	case "rk":
		return fault.RouterKill, nil
	case "lk":
		return fault.LinkKill, nil
	case "pd":
		return fault.PortDisable, nil
	case "sb":
		return fault.LinkStuckBit, nil
	default:
		return 0, fmt.Errorf("metrofuzz: unknown fault code %q", code)
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
