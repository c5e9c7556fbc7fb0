package sample

import (
	"icicle/internal/isa"
	"icicle/internal/obs"
)

// Telemetry publishes the sampling controller's per-phase progress
// counters. Construct standalone with NewTelemetry or registered with
// TelemetryIn; a nil *Telemetry disables publication entirely.
type Telemetry struct {
	FFInsts        *obs.Counter
	WarmupReplays  *obs.Counter
	DetailedCycles *obs.Counter
	DetailedInsts  *obs.Counter
	Windows        *obs.Counter
	// QueueDepth is the number of plan windows still waiting for a
	// worker (two-phase engine only; always 0 between runs).
	QueueDepth *obs.Gauge

	// Superblock-engine counters: the functional CPU keeps plain
	// uint64 stats (its hot loop stays allocation- and atomic-free),
	// and the controller/producer flush per-run deltas here.
	SBHits          *obs.Counter
	SBMisses        *obs.Counter
	SBTranslations  *obs.Counter
	SBInvalidations *obs.Counter
}

// NewTelemetry builds a handle in a private registry (counters still
// count; they are just not exported anywhere).
func NewTelemetry() *Telemetry { return TelemetryIn(obs.NewRegistry()) }

// TelemetryIn registers the counters in reg under the
// icicle_sample_* (controller phases) and icicle_isa_superblock_*
// (functional-engine block cache) names.
func TelemetryIn(reg *obs.Registry) *Telemetry {
	return &Telemetry{
		FFInsts: reg.Counter("icicle_sample_fastforward_insts_total",
			"Instructions executed functionally between detailed windows."),
		WarmupReplays: reg.Counter("icicle_sample_warmup_replays_total",
			"Instructions replayed into caches/predictors before windows."),
		DetailedCycles: reg.Counter("icicle_sample_detailed_cycles_total",
			"Cycles simulated inside detailed windows."),
		DetailedInsts: reg.Counter("icicle_sample_detailed_insts_total",
			"Instructions committed inside detailed windows."),
		Windows: reg.Counter("icicle_sample_windows_total",
			"Detailed windows executed by sampled runs."),
		QueueDepth: reg.Gauge("icicle_sample_queue_depth",
			"Detailed windows awaiting a worker in the two-phase engine."),
		SBHits: reg.Counter("icicle_isa_superblock_hits_total",
			"Superblock dispatches served from the translated-block cache."),
		SBMisses: reg.Counter("icicle_isa_superblock_misses_total",
			"Superblock dispatches that had to (re)translate."),
		SBTranslations: reg.Counter("icicle_isa_superblock_translations_total",
			"Superblocks translated (including step-through sentinels)."),
		SBInvalidations: reg.Counter("icicle_isa_superblock_invalidations_total",
			"Superblocks discarded after code-range stores or decode flushes."),
	}
}

// AddSuperblock folds a per-run superblock stats delta into the
// counters. The nil handle (and nil counters — obs.Counter.Add is
// nil-safe) are safe no-ops, mirroring the other telemetry guards.
func (t *Telemetry) AddSuperblock(d isa.SBStats) {
	if t == nil {
		return
	}
	t.SBHits.Add(d.Hits)
	t.SBMisses.Add(d.Misses)
	t.SBTranslations.Add(d.Translations)
	t.SBInvalidations.Add(d.Invalidations)
}
