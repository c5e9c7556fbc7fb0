package isa

// Event-level execution for functional warming. Sampled simulation
// trains caches, TLBs, and branch predictors on a warm span before each
// detailed window, and that training needs only a few facts per
// instruction: where a new fetch block starts, each branch's outcome and
// each other control transfer's target, and each data access. RunWarm
// executes on the superblock engine and reports exactly those events to
// a WarmSink; every other instruction costs little more than in RunFor:
// no Retired record and no call out of the block loop.

// WarmSink receives the warm events of one RunWarm call, in program
// order. For each instruction, Fetch (if any) comes first, then Branch
// or Jump (if any), then Mem (if any).
type WarmSink interface {
	// Fetch reports the first instruction of a new fetch block: the
	// first instruction of the call, or one whose pc>>fetchShift differs
	// from the previous instruction's.
	Fetch(pc uint64)
	// Branch reports a conditional branch, its outcome, and the PC it
	// continued at.
	Branch(pc uint64, taken bool, next uint64)
	// Jump reports any other instruction whose next PC is not
	// pc+InstBytes: jal/jalr (unless they land on pc+InstBytes) and the
	// halting ecall, which does not advance.
	Jump(pc, next uint64)
	// Mem reports a data access; write is set for stores and for the
	// whole atomic class, lr included.
	Mem(addr uint64, write bool)
}

// RunWarm executes up to n instructions exactly like RunFor and reports
// their warm events to sink; fetchShift is log2 of the fetch block size.
// With superblocks disabled it derives the same events from Step
// records, so the Step loop stays the reference.
func (c *CPU) RunWarm(n uint64, fetchShift uint, sink WarmSink) (uint64, error) {
	return c.runEvents(n, fetchShift, sink, nil)
}

// RunForTraced is RunFor with a per-instruction Retired callback,
// reconstructing the exact records Step would produce (same Seq, PC,
// NextPC, Taken, MemAddr). It exists for differential testing and
// trace consumers; it rides RunWarm's executor with the warm events
// discarded.
func (c *CPU) RunForTraced(n uint64, emit func(Retired)) (uint64, error) {
	return c.runEvents(n, 0, nopSink{}, emit)
}

type nopSink struct{}

func (nopSink) Fetch(uint64)                {}
func (nopSink) Branch(uint64, bool, uint64) {}
func (nopSink) Jump(uint64, uint64)         {}
func (nopSink) Mem(uint64, bool)            {}

// eventRun is the state of one runEvents call.
type eventRun struct {
	sink  WarmSink
	emit  func(Retired) // nil unless tracing
	shift uint
	blk   uint64 // fetch block of the previous instruction
}

// noBlock never equals a fetch block: PCs are even, so pc>>shift is
// below ^0 for every shift.
const noBlock = ^uint64(0)

func (c *CPU) runEvents(n uint64, shift uint, sink WarmSink, emit func(Retired)) (uint64, error) {
	ev := eventRun{sink: sink, emit: emit, shift: shift, blk: noBlock}
	if c.sbOn {
		c.X[0] = 0 // handlers read x0 unguarded; pin the invariant once
	}
	var done uint64
	for done < n && !c.Halted {
		if c.sbOn {
			if b := c.lookupSB(c.PC); b.code != nil {
				done += c.execSBEvents(b, n-done, &ev)
				continue
			}
		}
		r, err := c.Step()
		if err != nil {
			return done, err
		}
		ev.retired(r)
		done++
	}
	return done, nil
}

// retired reports the events of one Step record.
func (ev *eventRun) retired(r Retired) {
	if blk := r.PC >> ev.shift; blk != ev.blk {
		ev.sink.Fetch(r.PC)
		ev.blk = blk
	}
	switch cls := r.Inst.Op.Class(); {
	case cls == ClassBranch:
		ev.sink.Branch(r.PC, r.Taken, r.NextPC)
	case r.NextPC != r.PC+instBytes:
		ev.sink.Jump(r.PC, r.NextPC)
	case cls == ClassLoad:
		ev.sink.Mem(r.MemAddr, false)
	case cls == ClassStore || cls == ClassAtomic:
		ev.sink.Mem(r.MemAddr, true)
	}
	if ev.emit != nil {
		ev.emit(r)
	}
}

// execSBEvents runs up to budget handlers of b back-to-back, updating
// PC and InstRet once at exit like RunFor's hot loop, and reports each
// instruction's events. Memory addresses are computed before the
// handler runs (a load may clobber its own base register); a branch was
// taken exactly when its handler exits the block.
func (c *CPU) execSBEvents(b *superblock, budget uint64, ev *eventRun) uint64 {
	n := uint64(len(b.code))
	if budget < n {
		n = budget
	}
	c.sbCur = b
	var i uint64
	for i < n {
		pc := b.pc + i*instBytes
		if blk := pc >> ev.shift; blk != ev.blk {
			ev.sink.Fetch(pc)
			ev.blk = blk
		}
		cls := b.cls[i]
		var addr uint64
		switch cls {
		case ClassLoad, ClassStore:
			addr = c.X[b.insts[i].Rs1] + uint64(b.insts[i].Imm)
		case ClassAtomic:
			addr = c.X[b.insts[i].Rs1]
		}
		ok := b.code[i](c)
		i++
		next := pc + instBytes
		if !ok {
			next = c.PC
		}
		switch {
		case cls == ClassBranch:
			ev.sink.Branch(pc, !ok, next)
		case next != pc+instBytes:
			ev.sink.Jump(pc, next)
		case cls == ClassLoad:
			ev.sink.Mem(addr, false)
		case cls == ClassStore || cls == ClassAtomic:
			ev.sink.Mem(addr, true)
		}
		if ev.emit != nil {
			ev.emit(Retired{Seq: c.InstRet + i - 1, PC: pc, NextPC: next, Inst: b.insts[i-1],
				Taken: cls == ClassBranch && !ok, MemAddr: addr})
		}
		if !ok {
			c.sbCur = nil
			c.InstRet += i
			return i
		}
	}
	c.sbCur = nil
	c.PC = b.pc + i*instBytes
	c.InstRet += i
	return i
}
