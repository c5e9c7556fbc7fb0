package obs

// CoreTelemetry is the nil-safe handle a simulated core's cycle loop
// publishes throughput through: cycles simulated and instructions retired,
// as process-wide counters a scraper turns into rates (host-side
// cycles/sec and retired-insts/sec). Cores accumulate locally in fields
// they already maintain and flush deltas periodically, so the enabled cost
// is two atomic adds every flush interval, and the disabled cost (nil
// handle) is one pointer test per flush check — zero allocations either
// way, which alloc_test.go pins.
type CoreTelemetry struct {
	Cycles *Counter // cycles simulated
	Insts  *Counter // instructions retired

	// Event-driven skip accounting: cycles the detailed loop advanced in
	// bulk instead of stepping (a subset of Cycles), and how many skip
	// jumps produced them. skipped/cycles is the live quiescence ratio.
	SkippedCycles *Counter
	SkipEvents    *Counter
}

// CoreTelemetryIn registers the handle's counters in reg under
// icicle_<core>_cycles_simulated_total / icicle_<core>_insts_retired_total,
// plus the shared skip series icicle_core_skipped_cycles_total /
// icicle_core_skip_events_total labeled by core. A nil registry yields a
// handle with nil counters (updates discarded) — callers that want true
// disabled mode should pass a nil *CoreTelemetry instead.
func CoreTelemetryIn(reg *Registry, core string) *CoreTelemetry {
	return &CoreTelemetry{
		Cycles: reg.Counter("icicle_"+core+"_cycles_simulated_total",
			"cycles simulated on the "+core+" timing model"),
		Insts: reg.Counter("icicle_"+core+"_insts_retired_total",
			"instructions retired on the "+core+" timing model"),
		SkippedCycles: reg.Counter(LabeledName("icicle_core_skipped_cycles_total", "core", core),
			"detailed cycles advanced in bulk by the event-driven skip path"),
		SkipEvents: reg.Counter(LabeledName("icicle_core_skip_events_total", "core", core),
			"quiescent-stretch jumps taken by the event-driven skip path"),
	}
}

// TelemetryFlushInterval is how often (in cycles) an instrumented core
// flushes its local throughput deltas to the shared counters: frequent
// enough that a multi-minute sweep's live rates track reality, rare
// enough that the two atomic adds never show up in a profile.
const TelemetryFlushInterval = 1 << 14

// Add publishes a (cycles, insts) delta. Nil-safe, alloc-free.
func (t *CoreTelemetry) Add(cycles, insts uint64) {
	if t == nil {
		return
	}
	t.Cycles.Add(cycles)
	t.Insts.Add(insts)
}

// AddSkip publishes a (skipped cycles, skip events) delta. Nil-safe,
// alloc-free; handles predating the skip counters (zero-value struct
// literals) are tolerated via the counters' own nil-safety.
func (t *CoreTelemetry) AddSkip(cycles, events uint64) {
	if t == nil {
		return
	}
	t.SkippedCycles.Add(cycles)
	t.SkipEvents.Add(events)
}
