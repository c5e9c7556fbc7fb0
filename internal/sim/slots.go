package sim

import "sync"

// slotBudget is a runner's core budget: one slot per worker. A
// simulating job holds one slot for its whole run, waiting for it if
// every slot is taken; a plan-engine job also borrows the slots that are
// free when its windows start, without waiting, and gives them back when
// they are done. So a lone job fans out over every idle core, and
// concurrent jobs share the cores without oversubscribing them.
type slotBudget struct {
	mu         sync.Mutex
	freed      sync.Cond
	size, busy int
	peak       int // most slots held at once
}

func newSlotBudget(size int) *slotBudget {
	b := &slotBudget{size: size}
	b.freed.L = &b.mu
	return b
}

// take holds one slot, waiting until one is free.
func (b *slotBudget) take() {
	b.mu.Lock()
	for b.busy >= b.size {
		b.freed.Wait()
	}
	b.hold(1)
	b.mu.Unlock()
}

// borrow holds up to n of the free slots without waiting and returns how
// many it got.
func (b *slotBudget) borrow(n int) int {
	b.mu.Lock()
	n = max(0, min(n, b.size-b.busy))
	b.hold(n)
	b.mu.Unlock()
	return n
}

func (b *slotBudget) hold(n int) {
	b.busy += n
	b.peak = max(b.peak, b.busy)
}

// give returns n slots.
func (b *slotBudget) give(n int) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	b.busy -= n
	b.mu.Unlock()
	b.freed.Broadcast()
}

// peakHeld reports the most slots held at once so far.
func (b *slotBudget) peakHeld() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}
