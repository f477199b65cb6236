// Package core implements the METRO router: a dilated crossbar routing
// component supporting half-duplex bidirectional, pipelined,
// circuit-switched connections (paper, Sections 3-5).
//
// Each router is self-routing and handles dynamic message traffic. The
// principal mechanisms modeled at clock-cycle granularity are:
//
//   - stochastic path selection: a connection requesting a logical output
//     direction is switched to a randomly chosen available backward port in
//     that direction; if none is available the connection is blocked;
//   - connection reversal (TURN): an open connection may reverse its
//     transmission direction any number of times; at each reversal the
//     router injects STATUS and CHECKSUM words into the new stream,
//     providing the information sources use for error localization;
//   - fast path reclamation: a blocked connection either holds the path for
//     a detailed reply (status + checksum at the blocking router) or is
//     torn down immediately by a backward control bit (BCB), selectable per
//     forward port and reconfigurable during operation;
//   - pipelined connection setup (hw header words consumed per router) and
//     data pipelining (dp pipeline stages through the router);
//   - configurable dilation: the effective dilation may be set to any power
//     of two up to the implementation maximum;
//   - per-port enables for scan-driven fault masking.
package core

import (
	"fmt"

	"metro/internal/word"
)

// Config holds the architectural parameters of a METRO router
// implementation, following Table 1 of the paper. These are fixed when the
// component is "fabricated"; run-time options live in Settings.
type Config struct {
	// Inputs is i, the number of forward ports (a power of two).
	Inputs int
	// Outputs is o, the number of backward ports (a power of two,
	// o >= MaxDilation).
	Outputs int
	// Width is w, the bit width of the data channel (w >= log2(o)).
	Width int
	// MaxDilation is max_d, the largest configurable dilation (a power of
	// two, <= Outputs).
	MaxDilation int
	// HeaderWords is hw, the number of header words consumed per router.
	// hw == 0 selects in-word bit stripping (RN1 style); hw >= 1 selects
	// pipelined connection setup consuming hw words from the stream head.
	HeaderWords int
	// DataPipe is dp, the number of data pipeline stages inside the router
	// (>= 1).
	DataPipe int
	// MaxVTD is max_vtd, the largest per-port variable turn delay the
	// implementation supports (>= 0).
	MaxVTD int
	// RandomInputs is ri, the number of random input bit streams (>= 1).
	RandomInputs int
	// ScanPaths is sp, the number of scan paths / TAPs (>= 1).
	ScanPaths int
}

// MaxPorts bounds Inputs and Outputs: the router's port masks and the
// cascade IN-USE signal (Router.BackwardInUse) hold one bit per port in a
// uint64. The paper's components are 4x4 and 8x8.
const MaxPorts = 64

// Validate checks the Table 1 parameter constraints and the model's own
// limits (MaxPorts, the 32-bit payload).
func (c Config) Validate() error {
	switch {
	case c.Inputs < 1 || !isPow2(c.Inputs):
		return fmt.Errorf("core: Inputs (i) must be a power of two, got %d", c.Inputs)
	case c.Outputs < 1 || !isPow2(c.Outputs):
		return fmt.Errorf("core: Outputs (o) must be a power of two, got %d", c.Outputs)
	case c.Inputs > MaxPorts:
		return fmt.Errorf("core: Inputs (i) %d exceeds the model's %d-port limit", c.Inputs, MaxPorts)
	case c.Outputs > MaxPorts:
		return fmt.Errorf("core: Outputs (o) %d exceeds the model's %d-port limit", c.Outputs, MaxPorts)
	case c.MaxDilation < 1 || !isPow2(c.MaxDilation):
		return fmt.Errorf("core: MaxDilation (max_d) must be a power of two, got %d", c.MaxDilation)
	case c.MaxDilation > c.Outputs:
		return fmt.Errorf("core: MaxDilation %d exceeds Outputs %d", c.MaxDilation, c.Outputs)
	case c.Width < int(log2(c.Outputs)):
		return fmt.Errorf("core: Width (w) %d < log2(Outputs) = %d", c.Width, log2(c.Outputs))
	case c.Width > 32:
		return fmt.Errorf("core: Width (w) %d exceeds the model's 32-bit payload limit", c.Width)
	case c.HeaderWords < 0:
		return fmt.Errorf("core: HeaderWords (hw) must be >= 0, got %d", c.HeaderWords)
	case c.DataPipe < 1:
		return fmt.Errorf("core: DataPipe (dp) must be >= 1, got %d", c.DataPipe)
	case c.MaxVTD < 0:
		return fmt.Errorf("core: MaxVTD (max_vtd) must be >= 0, got %d", c.MaxVTD)
	case c.RandomInputs < 1:
		return fmt.Errorf("core: RandomInputs (ri) must be >= 1, got %d", c.RandomInputs)
	case c.ScanPaths < 1:
		return fmt.Errorf("core: ScanPaths (sp) must be >= 1, got %d", c.ScanPaths)
	}
	// What log2(Outputs) leaves for NewWidth: width 0 at a single output.
	if _, err := word.NewWidth(c.Width); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Radix returns the number of logically distinct output directions when the
// router is configured with dilation d: r = o / d.
func (c Config) Radix(d int) int { return c.Outputs / d }

// DirBits returns the number of routing bits a router consumes per
// connection at dilation d: log2(radix), at most log2(MaxPorts) = 6 under
// Validate. It is the one source of a stage's direction-bit count: netsim
// builds the endpoints' routing headers from it.
func (c Config) DirBits(d int) uint8 { return log2(c.Radix(d)) }

// Settings holds the run-time configurable options of a router, following
// Table 2 of the paper. All options are loadable over the scan interface
// (package scan); port enables and fast reclamation may also be changed
// while the router is in operation. A per-port option is a mask: bit p
// is port p, and no bit is set at or above the bank's port count
// (Config.Validate caps both banks at MaxPorts).
type Settings struct {
	// Dilation is the configured effective dilation d (a power of two,
	// 1 <= d <= MaxDilation).
	Dilation int
	// ForwardEnabled enables each forward port (Inputs bits). A disabled
	// port ignores all traffic and can be isolated for scan testing.
	ForwardEnabled uint64
	// BackwardEnabled enables each backward port (Outputs bits). Disabled
	// ports are never allocated.
	BackwardEnabled uint64
	// FastReclaim selects fast path reclamation per forward port (Inputs
	// bits). A clear bit holds blocked connections for a detailed status
	// reply.
	FastReclaim uint64
	// Swallow selects, per forward port (Inputs bits), whether a routing
	// word whose bits are exhausted is removed from the stream. Only
	// relevant when HeaderWords == 0.
	Swallow uint64
	// TurnDelay records the variable turn delay configured for each port
	// (len Inputs+Outputs), each <= MaxVTD. The delay itself is realized
	// by the attached link pipelines; the register exists so the scan
	// interface can read and write the same configuration state the
	// silicon holds.
	TurnDelay []int
	// OffPortDrive selects, per port, whether a disabled port actively
	// drives its output pins (used during boundary test of isolated
	// ports): [0] the forward ports (Inputs bits), [1] the backward ones
	// (Outputs bits).
	OffPortDrive [2]uint64
}

// ports returns the mask of the first n ports, n <= MaxPorts.
func ports(n int) uint64 { return 1<<n - 1 }

// DefaultSettings returns settings with every port enabled, fast
// reclamation and swallow on, and dilation equal to MaxDilation.
func DefaultSettings(c Config) Settings {
	in := ports(c.Inputs)
	return Settings{
		Dilation:        c.MaxDilation,
		ForwardEnabled:  in,
		BackwardEnabled: ports(c.Outputs),
		FastReclaim:     in,
		Swallow:         in,
		TurnDelay:       make([]int, c.Inputs+c.Outputs),
	}
}

// Validate checks the settings against the architectural parameters.
func (s Settings) Validate(c Config) error {
	in, out := ports(c.Inputs), ports(c.Outputs)
	switch {
	case s.Dilation < 1 || !isPow2(s.Dilation):
		return fmt.Errorf("core: Dilation must be a power of two, got %d", s.Dilation)
	case s.Dilation > c.MaxDilation:
		return fmt.Errorf("core: Dilation %d exceeds MaxDilation %d", s.Dilation, c.MaxDilation)
	case (s.ForwardEnabled|s.FastReclaim|s.Swallow|s.OffPortDrive[0])&^in != 0 ||
		(s.BackwardEnabled|s.OffPortDrive[1])&^out != 0:
		return fmt.Errorf("core: a per-port option sets a bit past the router's %d forward and %d backward ports", c.Inputs, c.Outputs)
	case len(s.TurnDelay) != c.Inputs+c.Outputs:
		return fmt.Errorf("core: TurnDelay length %d != Inputs+Outputs %d", len(s.TurnDelay), c.Inputs+c.Outputs)
	}
	for p, td := range s.TurnDelay {
		if td < 0 || td > c.MaxVTD {
			return fmt.Errorf("core: TurnDelay[%d] = %d outside [0, max_vtd=%d]", p, td, c.MaxVTD)
		}
	}
	return nil
}

// Shape is what the routers of a network stage have in common: the
// architectural parameters and the run-time settings the stage is
// configured with, turn delays included. Every router built from a Shape
// points at it rather than holding a copy. The configuration register of a
// METRO component only diverges from its siblings' when a scan UPDATE-DR
// writes it, so a router takes a private copy the first time one of its
// scan-style mutators writes its settings (copy-on-write), and a Shape is
// never written once made.
type Shape struct {
	Config
	set   Settings
	width word.Width // Config.Width
}

// NewShape validates cfg and set, once for every router built from the
// shape, and keeps a deep copy of set.
func NewShape(cfg Config, set Settings) (*Shape, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := set.Validate(cfg); err != nil {
		return nil, err
	}
	w, _ := word.NewWidth(cfg.Width) // Validate admitted the width
	return &Shape{Config: cfg, set: set.Clone(), width: w}, nil
}

// Clone returns a deep copy of the settings: the masks copy with the
// struct, so only the turn delays are copied apart.
//
//metrovet:alloc reached per cycle only through a router's copy-on-write, once per router a scan-style mutator writes
func (s Settings) Clone() Settings {
	s.TurnDelay = append([]int(nil), s.TurnDelay...)
	return s
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// log2 returns ceil(log2(n)), and 0 for n <= 1: how many times n halves,
// rounding up, before it reaches 1. It counts in the uint8 a ROUTE word
// counts its bits in.
func log2(n int) uint8 {
	var b uint8
	for ; n > 1; n -= n / 2 {
		b++
	}
	return b
}
