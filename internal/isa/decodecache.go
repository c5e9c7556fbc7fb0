package isa

// The decode cache memoizes fetch+decode, the fixed per-Step overhead
// that dominates functional execution (every instruction pays one memory
// load and one full decode otherwise). It is pure memoization: entries
// are tagged with the exact PC, any store that overlaps a cached word
// invalidates it, fence.i flushes it, and Reset clears it — so cached
// execution is bit-identical to uncached, including under self-modifying
// code.
const (
	// 4096 entries ≈ 16 KiB of code, direct-mapped by word address.
	// Unlike superblock heads, every instruction word takes a slot, so
	// contiguous hot code up to 16 KiB maps without a conflict; a hashed
	// slot (superblock.go's sbSlot) measured worse on the SPEC proxies
	// (x264 0.45% → 4.1% misses per Step, xz 0.6% → 2.6%) and did not
	// help the ones whose code outgrows the cache.
	dcBits = 12
	dcSize = 1 << dcBits
	dcMask = dcSize - 1
)

type dcEntry struct {
	pc    uint64
	inst  Inst
	valid bool
}

func newDecodeCache() []dcEntry { return make([]dcEntry, dcSize) }

func (c *CPU) flushDecode() {
	for i := range c.dcache {
		c.dcache[i].valid = false
	}
	// Superblocks re-verify lazily: bumping the epoch marks every
	// translated block stale without walking the cache (see
	// superblock.go); blocks whose source words are unchanged restamp
	// allocation-free on next entry.
	c.sbEpoch++
}

// FlushDecode invalidates the decode cache. Callers that mutate memory
// behind the CPU's back (e.g. applying externally produced frame deltas,
// which bypass storeMem's per-word invalidation) must flush before the
// next Step so cached decodes cannot go stale.
func (c *CPU) FlushDecode() { c.flushDecode() }

// storeMem performs a data store and invalidates any cached decode of the
// overwritten words, plus any superblock translated from them. Both
// invalidation passes are gated on a summary range of cached code
// ([dcLo,dcHi) / [sbLo,sbHi), never shrinking), so the overwhelmingly
// common data store pays two compares per cache instead of the word
// walk.
func (c *CPU) storeMem(addr uint64, size int, val uint64) {
	c.Mem.Store(addr, size, val)
	if c.dcHi != 0 && addr < c.dcHi && addr+uint64(size) > c.dcLo {
		first := addr >> 2
		last := (addr + uint64(size-1)) >> 2
		for w := first; w <= last; w++ {
			if e := &c.dcache[w&dcMask]; e.valid && e.pc>>2 == w {
				e.valid = false
			}
		}
	}
	// Superblock invalidation: [sbLo, sbHi) summarizes all translated
	// code, so the overwhelmingly common data store pays two compares.
	// A store inside the range marks every block stale (epoch bump,
	// re-verified on next entry); if it overlaps the block currently
	// executing, sbKilled makes the store's own handler exit the block
	// so the modified bytes are refetched before they can execute.
	if c.sbHi != 0 && addr < c.sbHi && addr+uint64(size) > c.sbLo {
		c.sbEpoch++
		if cur := c.sbCur; cur != nil && addr < cur.end && addr+uint64(size) > cur.pc {
			c.sbKilled = true
			c.sbStats.Invalidations++
		}
	}
}
