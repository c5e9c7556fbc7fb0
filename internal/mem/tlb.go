package mem

const pageBits = 12 // 4 KiB pages

// TLB is a fully-associative translation lookaside buffer timing model
// with true-LRU replacement. Translation itself is identity (the
// workloads run bare-metal, as in the paper's microbenchmark runs); the TLB
// only contributes hit/miss timing and the ITLB/DTLB/L2-TLB miss events.
//
// Every access is O(1) whatever the entry count: a hash index maps each
// resident page to its slot, and an intrusive doubly linked list orders
// the slots from most to least recently used. A miss fills the next
// empty slot while any is left and otherwise evicts the list's tail.
// Slot positions are unobservable in a fully-associative structure, so
// each access hits or misses exactly as a linear true-LRU scan would
// (tlb_test.go keeps that scan as the oracle).
type TLB struct {
	entries []tlbEntry
	// buckets maps a page's hash to the first slot of its chain (-1:
	// empty bucket).
	buckets  []int32
	hashBits uint
	// used counts the filled slots, which are always [0, used).
	used int32
	// head and tail are the most and least recently used slots (-1 while
	// the TLB is empty).
	head, tail int32
	// stats
	Accesses uint64
	Misses   uint64
}

type tlbEntry struct {
	vpn        uint64
	chain      int32 // next slot in the same bucket (-1: end)
	prev, next int32 // recency-list neighbors toward head and tail
}

// NewTLB returns a TLB with n entries (minimum 1).
func NewTLB(n int) *TLB {
	if n <= 0 {
		n = 1
	}
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	t := &TLB{
		entries:  make([]tlbEntry, n),
		buckets:  make([]int32, 1<<bits),
		hashBits: bits,
	}
	t.Reset()
	return t
}

func (t *TLB) bucket(vpn uint64) *int32 {
	return &t.buckets[(vpn*0x9e3779b97f4a7c15)>>(64-t.hashBits)]
}

// Access translates addr, returning true on hit. On miss the mapping is
// installed (replacing the LRU entry).
func (t *TLB) Access(addr uint64) bool {
	t.Accesses++
	vpn := addr >> pageBits
	// Page locality makes back-to-back translations of one page the
	// common case; the most recent page already heads the list.
	if t.head >= 0 && t.entries[t.head].vpn == vpn {
		return true
	}
	b := t.bucket(vpn)
	for i := *b; i >= 0; i = t.entries[i].chain {
		if t.entries[i].vpn == vpn {
			t.unlink(i)
			t.pushFront(i)
			return true
		}
	}
	t.Misses++
	var i int32
	if int(t.used) < len(t.entries) {
		i = t.used
		t.used++
	} else {
		i = t.tail
		t.unhash(i)
		t.unlink(i)
	}
	e := &t.entries[i]
	e.vpn = vpn
	e.chain = *b
	*b = i
	t.pushFront(i)
	return false
}

// unhash removes slot i from its bucket's chain.
func (t *TLB) unhash(i int32) {
	p := t.bucket(t.entries[i].vpn)
	for *p != i {
		p = &t.entries[*p].chain
	}
	*p = t.entries[i].chain
}

// unlink removes slot i from the recency list.
func (t *TLB) unlink(i int32) {
	e := &t.entries[i]
	if e.prev >= 0 {
		t.entries[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next >= 0 {
		t.entries[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
}

// pushFront makes slot i the most recently used.
func (t *TLB) pushFront(i int32) {
	e := &t.entries[i]
	e.prev, e.next = -1, t.head
	if t.head >= 0 {
		t.entries[t.head].prev = i
	} else {
		t.tail = i
	}
	t.head = i
}

// Reset returns the TLB to its just-constructed state.
func (t *TLB) Reset() {
	clear(t.entries)
	for i := range t.buckets {
		t.buckets[i] = -1
	}
	t.used = 0
	t.head, t.tail = -1, -1
	t.Accesses = 0
	t.Misses = 0
}

// MissRate returns misses/accesses, or 0 if untouched.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}
