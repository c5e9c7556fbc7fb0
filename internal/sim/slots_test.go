package sim

import "testing"

// TestSlotBudget pins the budget arithmetic: borrowing takes only free
// slots and never waits, and a waiting take resumes once a slot comes
// back.
func TestSlotBudget(t *testing.T) {
	b := newSlotBudget(3)
	b.take()
	if got := b.borrow(5); got != 2 {
		t.Fatalf("borrow(5) with 2 free slots = %d", got)
	}
	if got := b.borrow(1); got != 0 {
		t.Fatalf("borrow(1) with no free slot = %d", got)
	}
	if got := b.borrow(-1); got != 0 {
		t.Fatalf("borrow(-1) = %d", got)
	}
	taken := make(chan struct{})
	go func() {
		b.take()
		close(taken)
	}()
	b.give(2)
	<-taken
	b.give(0) // a job that borrowed nothing gives nothing back
	if got := b.borrow(3); got != 1 {
		t.Fatalf("borrow(3) with 1 free slot = %d", got)
	}
	if b.peakHeld() != 3 {
		t.Fatalf("peak = %d, want 3", b.peakHeld())
	}
}
