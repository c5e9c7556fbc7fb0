package boom

import (
	"fmt"

	"icicle/internal/mem"
	"icicle/internal/pmu"
)

// Size selects one of the five Table IV BOOM configurations.
type Size int

const (
	Small Size = iota
	Medium
	Large
	Mega
	Giga
)

var sizeNames = [...]string{"SmallBOOM", "MediumBOOM", "LargeBOOM", "MegaBOOM", "GigaBOOM"}

func (s Size) String() string {
	if int(s) < len(sizeNames) {
		return sizeNames[s]
	}
	return fmt.Sprintf("BOOM(%d)", int(s))
}

// Sizes lists all five configurations, smallest first.
var Sizes = []Size{Small, Medium, Large, Mega, Giga}

// ParseSize converts a CLI name ("small".."giga" or the full names).
func ParseSize(s string) (Size, error) {
	for i, n := range sizeNames {
		if s == n {
			return Size(i), nil
		}
	}
	short := [...]string{"small", "medium", "large", "mega", "giga"}
	for i, n := range short {
		if s == n {
			return Size(i), nil
		}
	}
	return 0, fmt.Errorf("boom: unknown size %q", s)
}

// Config parameterizes the BOOM timing model.
type Config struct {
	Name        string
	FetchWidth  int // instructions fetched per cycle
	DecodeWidth int // W_C: decode/dispatch/commit width
	IssueWidth  int // W_I: total issue ports across all queues
	ROBEntries  int
	IQInt       int // integer issue queue capacity
	IQMem       int // memory issue queue capacity
	IQLong      int // long-latency (mul/div) issue queue capacity
	LQEntries   int
	STQEntries  int
	FBEntries   int // fetch buffer capacity (≈ two fetch packets)

	// Issue ports per queue; must sum to IssueWidth.
	IntPorts  int
	MemPorts  int
	LongPorts int

	RedirectLatency int // frontend recovery cycles after a flush (Fig. 8b: 4)
	TakenBubble     int // dead fetch cycles after any taken-branch redirect

	// UseRAS adds a return-address stack to the frontend so function
	// returns redirect without a BTB-dependent resteer. Off by default:
	// the calibrated model attributes return resteers to PC Resteer, and
	// the ablation quantifies what a RAS would recover.
	UseRAS     bool
	RASEntries int

	// StoreForwarding lets a load take its value from the youngest older
	// completed store to the same dword without touching the D-cache
	// (1-cycle bypass). Off by default; exposed as an ablation.
	StoreForwarding bool
	BTBMissPenalty  int // resteer bubble for taken branch without BTB entry
	JALRPenalty     int // resteer cost for BTB-missing indirect jumps
	LoadLatency     int // load-to-use latency on a D$ hit
	MulLatency      int
	DivLatency      int

	Hierarchy mem.HierarchyConfig
	PMUArch   pmu.Architecture

	MaxCycles uint64
	MaxInsts  uint64
}

// CommonTiming fills the fields every size shares.
func commonTiming(c Config) Config {
	c.RedirectLatency = 4
	c.TakenBubble = 1
	c.RASEntries = 8
	c.BTBMissPenalty = 2
	c.JALRPenalty = 4
	c.LoadLatency = 3
	c.MulLatency = 3
	c.DivLatency = 16
	c.PMUArch = pmu.AddWires
	c.MaxCycles = 2_000_000_000
	c.MaxInsts = 500_000_000
	// "The Fetch Buffer typically holds two cycles of instruction data"
	// (§IV-A) — two *decode* cycles; a deeper buffer would hide the fetch
	// fragmentation that the per-lane Fetch-bubble events observe.
	c.FBEntries = 2 * c.DecodeWidth
	if c.FBEntries < c.FetchWidth {
		c.FBEntries = c.FetchWidth
	}
	return c
}

// NewConfig returns the Table IV configuration for the given size.
func NewConfig(s Size) Config {
	var c Config
	switch s {
	case Small:
		c = Config{
			FetchWidth: 4, DecodeWidth: 1, IssueWidth: 3,
			ROBEntries: 32, IQInt: 8, IQMem: 8, IQLong: 8,
			LQEntries: 8, STQEntries: 8,
			IntPorts: 1, MemPorts: 1, LongPorts: 1,
			Hierarchy: mem.DefaultHierarchyConfig(2),
		}
	case Medium:
		c = Config{
			FetchWidth: 4, DecodeWidth: 2, IssueWidth: 4,
			ROBEntries: 64, IQInt: 12, IQMem: 20, IQLong: 16,
			LQEntries: 16, STQEntries: 16,
			IntPorts: 2, MemPorts: 1, LongPorts: 1,
			Hierarchy: mem.DefaultHierarchyConfig(2),
		}
	case Large:
		c = Config{
			FetchWidth: 8, DecodeWidth: 3, IssueWidth: 5,
			ROBEntries: 96, IQInt: 16, IQMem: 32, IQLong: 24,
			LQEntries: 24, STQEntries: 24,
			IntPorts: 2, MemPorts: 2, LongPorts: 1,
			Hierarchy: mem.DefaultHierarchyConfig(4),
		}
	case Mega:
		c = Config{
			FetchWidth: 8, DecodeWidth: 4, IssueWidth: 8,
			ROBEntries: 128, IQInt: 24, IQMem: 40, IQLong: 32,
			LQEntries: 32, STQEntries: 32,
			IntPorts: 5, MemPorts: 2, LongPorts: 1,
			Hierarchy: mem.DefaultHierarchyConfig(8),
		}
	case Giga:
		c = Config{
			FetchWidth: 8, DecodeWidth: 5, IssueWidth: 9,
			ROBEntries: 130, IQInt: 24, IQMem: 40, IQLong: 32,
			LQEntries: 32, STQEntries: 32,
			IntPorts: 6, MemPorts: 2, LongPorts: 1,
			Hierarchy: mem.DefaultHierarchyConfig(8),
		}
	default:
		return NewConfig(Large)
	}
	c.Name = s.String()
	return commonTiming(c)
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.IntPorts+c.MemPorts+c.LongPorts != c.IssueWidth {
		return fmt.Errorf("boom: issue ports %d+%d+%d != issue width %d",
			c.IntPorts, c.MemPorts, c.LongPorts, c.IssueWidth)
	}
	if c.DecodeWidth < 1 || c.FetchWidth < c.DecodeWidth {
		return fmt.Errorf("boom: fetch width %d must cover decode width %d",
			c.FetchWidth, c.DecodeWidth)
	}
	if c.ROBEntries < 2*c.DecodeWidth {
		return fmt.Errorf("boom: ROB too small (%d)", c.ROBEntries)
	}
	return c.Hierarchy.Validate()
}
