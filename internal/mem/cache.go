package mem

import "fmt"

// CacheConfig sizes one cache level.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Ways       int
	BlockBytes int
}

// Validate checks the configuration for internal consistency.
func (c CacheConfig) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0:
		return fmt.Errorf("mem: %s: non-positive cache parameter", c.Name)
	case c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("mem: %s: block size %d not a power of two", c.Name, c.BlockBytes)
	case c.SizeBytes%(c.Ways*c.BlockBytes) != 0:
		return fmt.Errorf("mem: %s: size %d not divisible by ways*block", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.BlockBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * c.BlockBytes) }

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-touch stamp
}

// CacheStats aggregates cache events.
type CacheStats struct {
	Accesses  uint64
	Misses    uint64
	Evictions uint64 // valid lines displaced
	Releases  uint64 // dirty writebacks (the D$-release event)
}

// MissRate returns misses/accesses, or 0 if the cache is untouched.
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a timing-only set-associative cache with true-LRU replacement.
// Data lives in the Sparse backing store; the cache tracks tags and
// dirtiness to decide hit/miss/writeback.
type Cache struct {
	cfg    CacheConfig
	sets   [][]line
	stamp  uint64
	stats  CacheStats
	blkOff uint
	setLow uint
	setCnt uint64
}

// NewCache builds a cache; it panics on an invalid configuration (cache
// geometry is fixed at construction and always programmer-supplied).
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	sets := make([][]line, nsets)
	backing := make([]line, nsets*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &Cache{
		cfg:    cfg,
		sets:   sets,
		blkOff: uint(log2(cfg.BlockBytes)),
		setLow: uint(log2(cfg.BlockBytes)),
		setCnt: uint64(nsets),
	}
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns accumulated statistics.
func (c *Cache) Stats() CacheStats { return c.stats }

// BlockAddr returns addr truncated to its cache-block address.
func (c *Cache) BlockAddr(addr uint64) uint64 { return addr >> c.blkOff }

// BlockShift returns log2 of the block size: BlockAddr(a) == a>>BlockShift().
func (c *Cache) BlockShift() uint { return c.blkOff }

// AccessResult describes one cache access.
type AccessResult struct {
	Hit       bool
	Evicted   bool // a valid line was displaced to make room
	Writeback bool // the displaced line was dirty (D$-release)
}

// Access looks up addr, refilling on miss, and returns the outcome.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.stamp++
	c.stats.Accesses++
	tag := addr >> c.blkOff
	set := c.sets[tag&(c.setCnt-1)]
	// Hit path.
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.stamp
			if write {
				set[i].dirty = true
			}
			return AccessResult{Hit: true}
		}
	}
	// Miss: pick invalid way or LRU victim.
	c.stats.Misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			goto fill
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
fill:
	res := AccessResult{}
	if set[victim].valid {
		res.Evicted = true
		c.stats.Evictions++
		if set[victim].dirty {
			res.Writeback = true
			c.stats.Releases++
		}
	}
	set[victim] = line{tag: tag, valid: true, dirty: write, lru: c.stamp}
	return res
}

// Install fills the block containing addr without touching hit/miss
// statistics — the prefetch path. Displaced dirty lines still count as
// releases (the writeback happens regardless of what triggered it).
func (c *Cache) Install(addr uint64) {
	c.stamp++
	tag := addr >> c.blkOff
	set := c.sets[tag&(c.setCnt-1)]
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return // already present
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.stats.Releases++
	}
	set[victim] = line{tag: tag, valid: true, lru: c.stamp}
}

// Probe reports whether addr currently hits, without updating LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	tag := addr >> c.blkOff
	set := c.sets[tag&(c.setCnt-1)]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates every line (used by fence.i on the I-cache).
func (c *Cache) Flush() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = line{}
		}
	}
}

// Reset returns the cache to its just-constructed state: all lines
// invalid, the LRU stamp rewound, statistics cleared.
func (c *Cache) Reset() {
	c.Flush()
	c.stamp = 0
	c.stats = CacheStats{}
}
