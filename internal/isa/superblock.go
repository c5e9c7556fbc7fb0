package isa

// Superblock threaded-code engine: the fast-forward path of the
// functional CPU. Step() pays a fixed fetch/decode/dispatch cost per
// instruction; RunFor instead discovers straight-line regions
// (fall-through until an unconditional jump or the next 64-instruction
// aligned address), translates each once into a contiguous array of
// micro-handler closures with operands pre-extracted — register indices
// resolved, immediates and every PC-relative value (AUIPC results,
// branch/jump targets, link addresses) folded to constants — and then
// executes the handlers back-to-back with a single PC lookup per block
// entry and no per-instruction switch.
//
// Invalidation contract (the part that keeps this bit-identical to
// Step, including under self-modifying code):
//
//   - Translated blocks remember the exact instruction words they were
//     built from (words) plus a translation epoch. flushDecode — hence
//     Reset, fence.i, and FlushDecode after external delta application —
//     bumps the CPU-wide epoch instead of walking the cache; a block
//     entered under a newer epoch is re-verified word-for-word against
//     memory and either restamped (no allocation) or retranslated.
//   - storeMem keeps a summary range [sbLo, sbHi) of all translated
//     code; a store landing inside it bumps the epoch, and if it
//     overlaps the currently executing block it also sets sbKilled so
//     the store's handler exits the block after the store retires. The
//     next block entry refetches the modified bytes, exactly like
//     Step's per-word decode-cache invalidation.
//   - Leaving a block early is always safe: handlers carry no hidden
//     state, so execution can fall back to Step at any boundary.
//
// Untranslatable heads (ECALL, EBREAK, FENCE.I, CSR ops, illegal words)
// are cached as step-through sentinels (code == nil) and executed by
// Step, which preserves the exact halt, flush, and per-instruction
// InstRet semantics those ops observe (the PMU's CSR file reads the
// live instruction counter, which the block executor only syncs at
// block exit). Blocks never contain them, so a block can neither halt
// nor flush mid-flight.
const (
	sbBits   = 12 // 4096 entries, slot chosen by sbSlot(pc)
	sbSize   = 1 << sbBits
	sbMaxLen = 64 // instructions per block: blocks end at sbAlign-aligned addresses
	sbAlign  = sbMaxLen * instBytes
)

// sbSlot maps a block's entry PC onto the block cache by a
// multiplicative (Fibonacci) hash of its word address. Indexing by the
// low word-address bits instead makes block heads laid out at a
// power-of-two stride (every 64-instruction-aligned chain link, and
// code repeated at a large aligned stride) collide in a few slots and
// retranslate on every visit; the multiplicative hash spreads any
// stride over the whole table.
func sbSlot(pc uint64) uint64 {
	return ((pc >> 2) * 0x9e3779b97f4a7c15) >> (64 - sbBits)
}

// sbHandler executes one pre-decoded instruction. Returning true means
// the instruction fell through (the logical PC advanced by one
// instruction); returning false means the handler wrote the correct
// next PC into c.PC (taken branch, jump, or a store that invalidated
// its own block) and the block must exit.
type sbHandler = func(*CPU) bool

type superblock struct {
	pc    uint64 // entry point (the only PC checked per dispatch)
	end   uint64 // first byte past the translated range
	epoch uint64 // epoch the block was last verified under
	code  []sbHandler
	insts []Inst   // pre-decoded forms, for the event executor (warm.go)
	cls   []Class  // insts[i].Op.Class(), precomputed for the same
	words []uint32 // exact source words, for re-verification
}

// SBStats counts superblock-cache events. Counters only ever increase;
// subtract snapshots (Sub) to attribute deltas to a run.
type SBStats struct {
	Hits          uint64 // block dispatches served from the cache
	Misses        uint64 // dispatches that had to (re)translate
	Translations  uint64 // blocks built (including step-through sentinels)
	Invalidations uint64 // blocks discarded: stale words or in-flight store
}

// Sub returns the per-field difference s - prev.
func (s SBStats) Sub(prev SBStats) SBStats {
	return SBStats{
		Hits:          s.Hits - prev.Hits,
		Misses:        s.Misses - prev.Misses,
		Translations:  s.Translations - prev.Translations,
		Invalidations: s.Invalidations - prev.Invalidations,
	}
}

// SuperblockStats returns the CPU's cumulative superblock counters.
func (c *CPU) SuperblockStats() SBStats { return c.sbStats }

// DefaultSuperblocks selects whether NewCPU enables the superblock
// engine. Results are bit-identical either way (the flag exists for
// debugging and ablation), so it is deliberately excluded from memo
// keys.
var DefaultSuperblocks = true

// SetSuperblocks enables or disables the superblock engine for RunFor
// and Run. Step never consults superblocks. Toggling preserves the
// translated-block cache; the epoch/verify machinery keeps it coherent
// across any interleaving of engines.
func (c *CPU) SetSuperblocks(on bool) {
	c.sbOn = on
	if on && c.sb == nil {
		c.sb = make([]*superblock, sbSize)
		c.sbLo = ^uint64(0)
	}
}

// Superblocks reports whether the superblock engine is enabled.
func (c *CPU) Superblocks() bool { return c.sbOn }

// RunFor executes up to n instructions, stopping early only if the CPU
// halts, and returns the number retired. It is the fast-forward
// entry point: with superblocks enabled it runs translated blocks,
// falling back to Step for untranslatable instructions; disabled, it is
// a plain Step loop. Architectural results are bit-identical either
// way.
func (c *CPU) RunFor(n uint64) (uint64, error) {
	if !c.sbOn {
		return c.runForStepping(n)
	}
	if c.Halted {
		return 0, nil
	}
	c.X[0] = 0 // handlers read x0 unguarded; pin the invariant once
	var done uint64
	for done < n {
		// The hot dispatch is fully inlined: one slot load, tag compare,
		// and epoch compare per block, then handlers back-to-back.
		// Anything else (miss, stale epoch, untranslatable head) drops to
		// lookupSB / Step.
		pc := c.PC
		b := c.sb[sbSlot(pc)]
		if b == nil || b.pc != pc || b.epoch != c.sbEpoch {
			b = c.lookupSB(pc)
		} else {
			c.sbStats.Hits++
		}
		code := b.code
		if code == nil {
			if _, err := c.Step(); err != nil {
				return done, err
			}
			done++
			if c.Halted {
				break
			}
			continue
		}
		if rem := n - done; rem < uint64(len(code)) {
			code = code[:rem]
		}
		c.sbCur = b
		ran := uint64(len(code))
		fell := true
		for i, h := range code {
			if !h(c) {
				ran = uint64(i + 1)
				fell = false
				break
			}
		}
		c.sbCur = nil
		if fell {
			c.PC = pc + ran*instBytes
		}
		c.InstRet += ran
		done += ran
	}
	return done, nil
}

func (c *CPU) runForStepping(n uint64) (uint64, error) {
	var done uint64
	for done < n && !c.Halted {
		if _, err := c.Step(); err != nil {
			return done, err
		}
		done++
	}
	return done, nil
}

// lookupSB returns the (verified) superblock starting at pc,
// translating on miss. The slot is chosen by sbSlot and tagged with
// the exact PC, mirroring the decode cache.
func (c *CPU) lookupSB(pc uint64) *superblock {
	e := &c.sb[sbSlot(pc)]
	b := *e
	if b != nil && b.pc == pc {
		if b.epoch == c.sbEpoch {
			c.sbStats.Hits++
			return b
		}
		if c.verifySB(b) {
			b.epoch = c.sbEpoch
			c.sbStats.Hits++
			return b
		}
		c.sbStats.Invalidations++
	}
	c.sbStats.Misses++
	b = c.translateSB(pc)
	c.sbStats.Translations++
	*e = b
	if b.pc < c.sbLo {
		c.sbLo = b.pc
	}
	if b.end > c.sbHi {
		c.sbHi = b.end
	}
	return b
}

// verifySB checks the block's source words against memory; true means
// the translation is still exact and may be restamped to the current
// epoch without reallocating.
func (c *CPU) verifySB(b *superblock) bool {
	addr := b.pc
	for _, w := range b.words {
		if uint32(c.Mem.Load(addr, instBytes)) != w {
			return false
		}
		addr += instBytes
	}
	return true
}

// translateSB builds a superblock starting at pc: decode forward until
// an unconditional control transfer (JAL/JALR terminates the block), an
// untranslatable instruction (excluded; it runs via Step), or the next
// sbAlign-aligned address. Conditional branches stay mid-block —
// not-taken falls through to the next handler, taken exits with the
// folded target.
//
// Ending at aligned addresses rather than after sbMaxLen instructions
// keeps block boundaries a property of the code, not of where execution
// entered it: RunFor stops mid-block whenever its budget runs out, and
// a length cap would then re-segment the whole straight-line chain from
// the new entry point. With aligned ends a mid-block entry costs at
// most one extra block before execution rejoins the cached chain.
func (c *CPU) translateSB(pc uint64) *superblock {
	b := &superblock{pc: pc, epoch: c.sbEpoch}
	addr := pc
	for {
		word := uint32(c.Mem.Load(addr, instBytes))
		in := Decode(word)
		h, ends := sbHandlerFor(in, addr)
		if h == nil {
			break
		}
		b.code = append(b.code, h)
		b.insts = append(b.insts, in)
		b.cls = append(b.cls, in.Op.Class())
		b.words = append(b.words, word)
		addr += instBytes
		if ends || addr%sbAlign == 0 {
			break
		}
	}
	if len(b.code) == 0 {
		// Step-through sentinel: remember the head word so verification
		// notices if self-modifying code rewrites it into something
		// translatable.
		b.words = append(b.words, uint32(c.Mem.Load(pc, instBytes)))
		b.end = pc + instBytes
		return b
	}
	b.end = addr
	return b
}

// sbNop retires an instruction with no architectural effect (writes to
// x0, fence). It still counts toward InstRet via the block exit.
var sbNop sbHandler = func(*CPU) bool { return true }

// sbWrite folds a translation-time constant into a register write.
func sbWrite(rd Reg, v uint64) sbHandler {
	if rd == X0 {
		return sbNop
	}
	return func(c *CPU) bool { c.X[rd] = v; return true }
}

// sbHandlerFor translates one decoded instruction at pc into a
// micro-handler. The second result is true when the instruction must
// terminate its block (unconditional jumps). A nil handler means the
// instruction is untranslatable and must execute via Step; translation
// stops before it.
//
// Handler semantics mirror Step case-for-case: operand read order,
// x0 discards, reservation updates, and store invalidation all match,
// which is what the differential fuzzers pin down.
func sbHandlerFor(in Inst, pc uint64) (sbHandler, bool) {
	rd, rs1, rs2 := in.Rd, in.Rs1, in.Rs2
	imm := uint64(in.Imm)
	next := pc + instBytes

	switch in.Op {
	case LUI:
		return sbWrite(rd, uint64(in.Imm<<12)), false
	case AUIPC:
		return sbWrite(rd, pc+uint64(in.Imm<<12)), false

	case JAL:
		target := pc + imm
		if rd == X0 {
			return func(c *CPU) bool { c.PC = target; return false }, true
		}
		return func(c *CPU) bool { c.X[rd] = next; c.PC = target; return false }, true
	case JALR:
		if rd == X0 {
			return func(c *CPU) bool { c.PC = (c.X[rs1] + imm) &^ 1; return false }, true
		}
		return func(c *CPU) bool {
			t := (c.X[rs1] + imm) &^ 1
			c.X[rd] = next
			c.PC = t
			return false
		}, true

	case BEQ:
		target := pc + imm
		return func(c *CPU) bool {
			if c.X[rs1] == c.X[rs2] {
				c.PC = target
				return false
			}
			return true
		}, false
	case BNE:
		target := pc + imm
		return func(c *CPU) bool {
			if c.X[rs1] != c.X[rs2] {
				c.PC = target
				return false
			}
			return true
		}, false
	case BLT:
		target := pc + imm
		return func(c *CPU) bool {
			if int64(c.X[rs1]) < int64(c.X[rs2]) {
				c.PC = target
				return false
			}
			return true
		}, false
	case BGE:
		target := pc + imm
		return func(c *CPU) bool {
			if int64(c.X[rs1]) >= int64(c.X[rs2]) {
				c.PC = target
				return false
			}
			return true
		}, false
	case BLTU:
		target := pc + imm
		return func(c *CPU) bool {
			if c.X[rs1] < c.X[rs2] {
				c.PC = target
				return false
			}
			return true
		}, false
	case BGEU:
		target := pc + imm
		return func(c *CPU) bool {
			if c.X[rs1] >= c.X[rs2] {
				c.PC = target
				return false
			}
			return true
		}, false

	case LB:
		return func(c *CPU) bool {
			v := uint64(int64(int8(c.Mem.Load(c.X[rs1]+imm, 1))))
			if rd != X0 {
				c.X[rd] = v
			}
			return true
		}, false
	case LH:
		return func(c *CPU) bool {
			v := uint64(int64(int16(c.Mem.Load(c.X[rs1]+imm, 2))))
			if rd != X0 {
				c.X[rd] = v
			}
			return true
		}, false
	case LW:
		return func(c *CPU) bool {
			v := sext32(uint32(c.Mem.Load(c.X[rs1]+imm, 4)))
			if rd != X0 {
				c.X[rd] = v
			}
			return true
		}, false
	case LD:
		return func(c *CPU) bool {
			v := c.Mem.Load(c.X[rs1]+imm, 8)
			if rd != X0 {
				c.X[rd] = v
			}
			return true
		}, false
	case LBU:
		return func(c *CPU) bool {
			v := c.Mem.Load(c.X[rs1]+imm, 1)
			if rd != X0 {
				c.X[rd] = v
			}
			return true
		}, false
	case LHU:
		return func(c *CPU) bool {
			v := c.Mem.Load(c.X[rs1]+imm, 2)
			if rd != X0 {
				c.X[rd] = v
			}
			return true
		}, false
	case LWU:
		return func(c *CPU) bool {
			v := c.Mem.Load(c.X[rs1]+imm, 4)
			if rd != X0 {
				c.X[rd] = v
			}
			return true
		}, false

	case SB, SH, SW, SD:
		size := in.Op.MemSize()
		return func(c *CPU) bool {
			addr := c.X[rs1] + imm
			c.storeMem(addr, size, c.X[rs2])
			if c.reservation >= 0 && uint64(c.reservation)>>3 == addr>>3 {
				c.reservation = -1
			}
			if c.sbKilled {
				c.sbKilled = false
				c.PC = next
				return false
			}
			return true
		}, false

	case LRW:
		return func(c *CPU) bool {
			a := c.X[rs1]
			v := sext32(uint32(c.Mem.Load(a, 4)))
			if rd != X0 {
				c.X[rd] = v
			}
			c.reservation = int64(a)
			return true
		}, false
	case LRD:
		return func(c *CPU) bool {
			a := c.X[rs1]
			v := c.Mem.Load(a, 8)
			if rd != X0 {
				c.X[rd] = v
			}
			c.reservation = int64(a)
			return true
		}, false
	case SCW, SCD:
		size := in.Op.MemSize()
		return func(c *CPU) bool {
			a := c.X[rs1]
			v := c.X[rs2]
			res := uint64(1)
			if c.reservation >= 0 && uint64(c.reservation) == a {
				c.storeMem(a, size, v)
				res = 0
			}
			if rd != X0 {
				c.X[rd] = res
			}
			c.reservation = -1
			if c.sbKilled {
				c.sbKilled = false
				c.PC = next
				return false
			}
			return true
		}, false

	case AMOSWAPW, AMOADDW, AMOXORW, AMOANDW, AMOORW:
		op := in.Op
		return func(c *CPU) bool {
			a := c.X[rs1]
			v := uint32(c.X[rs2])
			old := uint32(c.Mem.Load(a, 4))
			var newv uint32
			switch op {
			case AMOSWAPW:
				newv = v
			case AMOADDW:
				newv = old + v
			case AMOXORW:
				newv = old ^ v
			case AMOANDW:
				newv = old & v
			case AMOORW:
				newv = old | v
			}
			c.storeMem(a, 4, uint64(newv))
			if rd != X0 {
				c.X[rd] = sext32(old)
			}
			if c.sbKilled {
				c.sbKilled = false
				c.PC = next
				return false
			}
			return true
		}, false
	case AMOSWAPD, AMOADDD, AMOXORD, AMOANDD, AMOORD:
		op := in.Op
		return func(c *CPU) bool {
			a := c.X[rs1]
			v := c.X[rs2]
			old := c.Mem.Load(a, 8)
			var newv uint64
			switch op {
			case AMOSWAPD:
				newv = v
			case AMOADDD:
				newv = old + v
			case AMOXORD:
				newv = old ^ v
			case AMOANDD:
				newv = old & v
			case AMOORD:
				newv = old | v
			}
			c.storeMem(a, 8, newv)
			if rd != X0 {
				c.X[rd] = old
			}
			if c.sbKilled {
				c.sbKilled = false
				c.PC = next
				return false
			}
			return true
		}, false

	case ADDI:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = c.X[rs1] + imm; return true }, false
	case SLTI:
		if rd == X0 {
			return sbNop, false
		}
		si := in.Imm
		return func(c *CPU) bool { c.X[rd] = b2u(int64(c.X[rs1]) < si); return true }, false
	case SLTIU:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = b2u(c.X[rs1] < imm); return true }, false
	case XORI:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = c.X[rs1] ^ imm; return true }, false
	case ORI:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = c.X[rs1] | imm; return true }, false
	case ANDI:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = c.X[rs1] & imm; return true }, false
	case SLLI:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = c.X[rs1] << imm; return true }, false
	case SRLI:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = c.X[rs1] >> imm; return true }, false
	case SRAI:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = uint64(int64(c.X[rs1]) >> imm); return true }, false
	case ADDIW:
		if rd == X0 {
			return sbNop, false
		}
		w := uint32(in.Imm)
		return func(c *CPU) bool { c.X[rd] = sext32(uint32(c.X[rs1]) + w); return true }, false
	case SLLIW:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = sext32(uint32(c.X[rs1]) << imm); return true }, false
	case SRLIW:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = sext32(uint32(c.X[rs1]) >> imm); return true }, false
	case SRAIW:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = sext32(uint32(int32(uint32(c.X[rs1])) >> imm)); return true }, false

	case ADD:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = c.X[rs1] + c.X[rs2]; return true }, false
	case SUB:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = c.X[rs1] - c.X[rs2]; return true }, false
	case SLL:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = c.X[rs1] << (c.X[rs2] & maxShamt64); return true }, false
	case SLT:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = b2u(int64(c.X[rs1]) < int64(c.X[rs2])); return true }, false
	case SLTU:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = b2u(c.X[rs1] < c.X[rs2]); return true }, false
	case XOR:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = c.X[rs1] ^ c.X[rs2]; return true }, false
	case SRL:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = c.X[rs1] >> (c.X[rs2] & maxShamt64); return true }, false
	case SRA:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = uint64(int64(c.X[rs1]) >> (c.X[rs2] & maxShamt64)); return true }, false
	case OR:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = c.X[rs1] | c.X[rs2]; return true }, false
	case AND:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = c.X[rs1] & c.X[rs2]; return true }, false
	case ADDW:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = sext32(uint32(c.X[rs1]) + uint32(c.X[rs2])); return true }, false
	case SUBW:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = sext32(uint32(c.X[rs1]) - uint32(c.X[rs2])); return true }, false
	case SLLW:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = sext32(uint32(c.X[rs1]) << (c.X[rs2] & maxShamt32)); return true }, false
	case SRLW:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = sext32(uint32(c.X[rs1]) >> (c.X[rs2] & maxShamt32)); return true }, false
	case SRAW:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool {
			c.X[rd] = sext32(uint32(int32(uint32(c.X[rs1])) >> (c.X[rs2] & maxShamt32)))
			return true
		}, false

	case MUL:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = c.X[rs1] * c.X[rs2]; return true }, false
	case MULH:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = mulh(int64(c.X[rs1]), int64(c.X[rs2])); return true }, false
	case MULHSU:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = mulhsu(int64(c.X[rs1]), c.X[rs2]); return true }, false
	case MULHU:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = mulhuHi(c.X[rs1], c.X[rs2]); return true }, false
	case DIV:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = uint64(divS(int64(c.X[rs1]), int64(c.X[rs2]))); return true }, false
	case DIVU:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = divU(c.X[rs1], c.X[rs2]); return true }, false
	case REM:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = uint64(remS(int64(c.X[rs1]), int64(c.X[rs2]))); return true }, false
	case REMU:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = remU(c.X[rs1], c.X[rs2]); return true }, false
	case MULW:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = sext32(uint32(c.X[rs1]) * uint32(c.X[rs2])); return true }, false
	case DIVW:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = sext32(uint32(divS32(int32(c.X[rs1]), int32(c.X[rs2])))); return true }, false
	case DIVUW:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = sext32(divU32(uint32(c.X[rs1]), uint32(c.X[rs2]))); return true }, false
	case REMW:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = sext32(uint32(remS32(int32(c.X[rs1]), int32(c.X[rs2])))); return true }, false
	case REMUW:
		if rd == X0 {
			return sbNop, false
		}
		return func(c *CPU) bool { c.X[rd] = sext32(remU32(uint32(c.X[rs1]), uint32(c.X[rs2]))); return true }, false

	case FENCE:
		// Architecturally a no-op in this single-hart model (Step agrees).
		return sbNop, false
	}

	// ECALL, EBREAK, FENCEI, CSR ops, ILLEGAL: Step-only. Halting, decode
	// flushes, and CSR reads of the live instret counter all need Step's
	// per-instruction semantics.
	return nil, true
}
