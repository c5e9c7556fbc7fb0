package rocket

import (
	"fmt"

	"icicle/internal/mem"
)

// Config parameterizes the Rocket timing model. DefaultConfig matches
// Table IV's Rocket row (2-wide fetch, 1-wide decode/issue, 512-entry BHT,
// 28-entry BTB) over the paper's common memory hierarchy.
type Config struct {
	FetchWidth  int // instructions fetched per cycle
	IBufEntries int // instruction buffer capacity

	BrMispredictPenalty int // frontend recovery cycles after a mispredict
	TakenBubble         int // dead fetch cycles after any taken-CF redirect
	BTBMissPenalty      int // fetch redirect bubble for taken CF without BTB hit
	JALRPenalty         int // redirect cost when a jalr target misses in the BTB
	LoadUseDelay        int // extra cycles before a load's value is usable
	MulLatency          int // pipelined multiply latency
	DivLatency          int // blocking divide latency
	CSRLatency          int // csr access serialization cost
	FencePenalty        int // pipeline flush cost for fence
	FenceIPenalty       int // fence.i: flush pipeline and I$

	Hierarchy mem.HierarchyConfig

	MaxCycles uint64 // simulation guard (0 = default)
	MaxInsts  uint64 // instruction budget (0 = default)
}

// defaultMaxCycles is the cycle budget of the paper's configuration, and
// the one a zero MaxCycles stands for.
const defaultMaxCycles = 2_000_000_000

// DefaultConfig returns the paper's Rocket configuration.
func DefaultConfig() Config {
	return Config{
		FetchWidth:          2,
		IBufEntries:         3,
		BrMispredictPenalty: 3,
		TakenBubble:         1,
		BTBMissPenalty:      2,
		JALRPenalty:         3,
		LoadUseDelay:        1,
		MulLatency:          4,
		DivLatency:          16,
		CSRLatency:          2,
		FencePenalty:        4,
		FenceIPenalty:       8,
		Hierarchy:           mem.DefaultHierarchyConfig(2),
		MaxCycles:           defaultMaxCycles,
		MaxInsts:            500_000_000,
	}
}

// CommitWidth returns Rocket's commit width (always 1: single issue).
func (Config) CommitWidth() int { return 1 }

// IssueWidth returns Rocket's issue width (always 1).
func (Config) IssueWidth() int { return 1 }

// Validate checks the configuration: a power-of-two fetch width, a
// non-empty instruction buffer, no negative latency or penalty, and a
// valid memory hierarchy. New does not call it (the paper's configs are
// valid by construction); configs from outside the program should be
// checked first.
func (c Config) Validate() error {
	if c.FetchWidth < 1 || c.FetchWidth&(c.FetchWidth-1) != 0 {
		return fmt.Errorf("rocket: fetch width %d is not a positive power of two", c.FetchWidth)
	}
	if c.IBufEntries < 1 {
		return fmt.Errorf("rocket: instruction buffer needs at least one entry (have %d)", c.IBufEntries)
	}
	if min(c.BrMispredictPenalty, c.TakenBubble, c.BTBMissPenalty, c.JALRPenalty, c.LoadUseDelay,
		c.MulLatency, c.DivLatency, c.CSRLatency, c.FencePenalty, c.FenceIPenalty) < 0 {
		return fmt.Errorf("rocket: negative latency or penalty")
	}
	return c.Hierarchy.Validate()
}
