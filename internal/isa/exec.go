package isa

import (
	"fmt"
	"math/bits"
)

// Memory is the functional data/instruction memory interface. Load returns
// the raw (zero-extended) bits; sign extension is applied by the CPU.
type Memory interface {
	Load(addr uint64, size int) uint64
	Store(addr uint64, size int, val uint64)
}

// CSRFile provides control-and-status register access for Zicsr
// instructions (the PMU counter file implements this).
type CSRFile interface {
	ReadCSR(addr uint16) uint64
	WriteCSR(addr uint16, val uint64)
}

// ExitSyscall is the RISC-V Linux/pk exit syscall number; an ECALL with
// a7 == ExitSyscall halts the CPU with exit code a0.
const ExitSyscall = 93

// Retired describes one architecturally executed instruction. Timing models
// consume the stream of Retired records produced by the functional CPU.
type Retired struct {
	Seq     uint64 // dynamic instruction index, from 0
	PC      uint64
	NextPC  uint64
	Inst    Inst
	Taken   bool   // conditional branch outcome
	MemAddr uint64 // effective address for loads/stores
	Halt    bool   // this instruction halted the CPU
}

// IsMem reports whether the retired instruction accessed data memory.
func (r Retired) IsMem() bool { return r.Inst.Op.MemSize() != 0 }

// CPU is the functional (architectural) RV64IM model. The zero value is not
// usable; construct with NewCPU.
type CPU struct {
	PC  uint64
	X   [32]uint64
	Mem Memory
	CSR CSRFile // optional; CSR instructions read zero / drop writes if nil

	// Ecall, if non-nil, intercepts ECALL instructions; returning true
	// halts the CPU. If nil, any ECALL halts.
	Ecall func(c *CPU) (halt bool)

	// reservation is the lr/sc address monitor (valid while reserved ≥ 0).
	reservation int64

	// dcache memoizes fetch+decode per word-aligned PC (see
	// decodecache.go for the invalidation contract). [dcLo, dcHi)
	// summarizes every PC ever cached so storeMem can reject data
	// stores without walking words; it never shrinks.
	dcache []dcEntry
	dcLo   uint64
	dcHi   uint64

	// Superblock engine state (see superblock.go). sb is the
	// hashed translated-block cache; sbEpoch is bumped by decode
	// flushes and code-range stores so stale blocks re-verify lazily;
	// [sbLo, sbHi) summarizes all translated code for the storeMem fast
	// reject; sbCur/sbKilled coordinate in-flight self-invalidation.
	sb       []*superblock
	sbEpoch  uint64
	sbLo     uint64
	sbHi     uint64
	sbCur    *superblock
	sbKilled bool
	sbOn     bool
	sbStats  SBStats

	Halted   bool
	ExitCode uint64
	InstRet  uint64
}

// NewCPU returns a CPU with PC set to entry, executing from mem. The
// superblock engine is enabled per DefaultSuperblocks.
func NewCPU(mem Memory, entry uint64) *CPU {
	c := &CPU{PC: entry, Mem: mem, reservation: -1, dcache: newDecodeCache()}
	c.SetSuperblocks(DefaultSuperblocks)
	return c
}

// Reset returns the CPU to power-on state at entry, keeping the memory,
// CSR file, and Ecall hook wiring. Callers are responsible for resetting
// the memory contents themselves; the decode cache is flushed here so a
// freshly loaded program never sees stale decodes.
func (c *CPU) Reset(entry uint64) {
	c.PC = entry
	c.X = [32]uint64{}
	c.reservation = -1
	c.flushDecode()
	c.sbCur, c.sbKilled = nil, false
	c.Halted = false
	c.ExitCode = 0
	c.InstRet = 0
}

// Reg reads register r (x0 reads as zero).
func (c *CPU) Reg(r Reg) uint64 {
	if r == X0 {
		return 0
	}
	return c.X[r]
}

func (c *CPU) setReg(r Reg, v uint64) {
	if r != X0 {
		c.X[r] = v
	}
}

// Step fetches, decodes, and executes one instruction, returning its
// Retired record. Calling Step on a halted CPU returns an error.
func (c *CPU) Step() (Retired, error) {
	if c.Halted {
		return Retired{}, fmt.Errorf("isa: step on halted CPU (exit code %d)", c.ExitCode)
	}
	var in Inst
	if e := &c.dcache[(c.PC>>2)&dcMask]; e.valid && e.pc == c.PC {
		in = e.inst
	} else {
		word := uint32(c.Mem.Load(c.PC, instBytes))
		in = Decode(word)
		if in.Op == ILLEGAL {
			return Retired{Seq: c.InstRet, PC: c.PC, Inst: in},
				fmt.Errorf("isa: illegal instruction 0x%08x at pc 0x%x", word, c.PC)
		}
		*e = dcEntry{pc: c.PC, inst: in, valid: true}
		if c.dcHi == 0 || c.PC < c.dcLo {
			c.dcLo = c.PC
		}
		if c.PC+instBytes > c.dcHi {
			c.dcHi = c.PC + instBytes
		}
	}
	r := Retired{Seq: c.InstRet, PC: c.PC, Inst: in}
	next := c.PC + instBytes

	rs1 := c.Reg(in.Rs1)
	rs2 := c.Reg(in.Rs2)

	switch in.Op {
	case LUI:
		c.setReg(in.Rd, uint64(in.Imm<<12))
	case AUIPC:
		c.setReg(in.Rd, c.PC+uint64(in.Imm<<12))

	case JAL:
		c.setReg(in.Rd, next)
		next = c.PC + uint64(in.Imm)
	case JALR:
		t := (rs1 + uint64(in.Imm)) &^ 1
		c.setReg(in.Rd, next)
		next = t

	case BEQ:
		r.Taken = rs1 == rs2
	case BNE:
		r.Taken = rs1 != rs2
	case BLT:
		r.Taken = int64(rs1) < int64(rs2)
	case BGE:
		r.Taken = int64(rs1) >= int64(rs2)
	case BLTU:
		r.Taken = rs1 < rs2
	case BGEU:
		r.Taken = rs1 >= rs2

	case LB, LH, LW, LD, LBU, LHU, LWU:
		addr := rs1 + uint64(in.Imm)
		r.MemAddr = addr
		raw := c.Mem.Load(addr, in.Op.MemSize())
		c.setReg(in.Rd, extendLoad(in.Op, raw))

	case SB, SH, SW, SD:
		addr := rs1 + uint64(in.Imm)
		r.MemAddr = addr
		c.storeMem(addr, in.Op.MemSize(), rs2)
		if c.reservation >= 0 && uint64(c.reservation)>>3 == addr>>3 {
			c.reservation = -1 // any overlapping store breaks the monitor
		}

	case LRW, LRD:
		r.MemAddr = rs1
		raw := c.Mem.Load(rs1, in.Op.MemSize())
		if in.Op == LRW {
			raw = sext32(uint32(raw))
		}
		c.setReg(in.Rd, raw)
		c.reservation = int64(rs1)

	case SCW, SCD:
		r.MemAddr = rs1
		if c.reservation >= 0 && uint64(c.reservation) == rs1 {
			c.storeMem(rs1, in.Op.MemSize(), rs2)
			c.setReg(in.Rd, 0)
		} else {
			c.setReg(in.Rd, 1)
		}
		c.reservation = -1

	case AMOSWAPW, AMOADDW, AMOXORW, AMOANDW, AMOORW:
		r.MemAddr = rs1
		old := uint32(c.Mem.Load(rs1, 4))
		var newv uint32
		switch in.Op {
		case AMOSWAPW:
			newv = uint32(rs2)
		case AMOADDW:
			newv = old + uint32(rs2)
		case AMOXORW:
			newv = old ^ uint32(rs2)
		case AMOANDW:
			newv = old & uint32(rs2)
		case AMOORW:
			newv = old | uint32(rs2)
		}
		c.storeMem(rs1, 4, uint64(newv))
		c.setReg(in.Rd, sext32(old))

	case AMOSWAPD, AMOADDD, AMOXORD, AMOANDD, AMOORD:
		r.MemAddr = rs1
		old := c.Mem.Load(rs1, 8)
		var newv uint64
		switch in.Op {
		case AMOSWAPD:
			newv = rs2
		case AMOADDD:
			newv = old + rs2
		case AMOXORD:
			newv = old ^ rs2
		case AMOANDD:
			newv = old & rs2
		case AMOORD:
			newv = old | rs2
		}
		c.storeMem(rs1, 8, newv)
		c.setReg(in.Rd, old)

	case ADDI:
		c.setReg(in.Rd, rs1+uint64(in.Imm))
	case SLTI:
		c.setReg(in.Rd, b2u(int64(rs1) < in.Imm))
	case SLTIU:
		c.setReg(in.Rd, b2u(rs1 < uint64(in.Imm)))
	case XORI:
		c.setReg(in.Rd, rs1^uint64(in.Imm))
	case ORI:
		c.setReg(in.Rd, rs1|uint64(in.Imm))
	case ANDI:
		c.setReg(in.Rd, rs1&uint64(in.Imm))
	case SLLI:
		c.setReg(in.Rd, rs1<<uint64(in.Imm))
	case SRLI:
		c.setReg(in.Rd, rs1>>uint64(in.Imm))
	case SRAI:
		c.setReg(in.Rd, uint64(int64(rs1)>>uint64(in.Imm)))
	case ADDIW:
		c.setReg(in.Rd, sext32(uint32(rs1)+uint32(in.Imm)))
	case SLLIW:
		c.setReg(in.Rd, sext32(uint32(rs1)<<uint64(in.Imm)))
	case SRLIW:
		c.setReg(in.Rd, sext32(uint32(rs1)>>uint64(in.Imm)))
	case SRAIW:
		c.setReg(in.Rd, sext32(uint32(int32(rs1)>>uint64(in.Imm))))

	case ADD:
		c.setReg(in.Rd, rs1+rs2)
	case SUB:
		c.setReg(in.Rd, rs1-rs2)
	case SLL:
		c.setReg(in.Rd, rs1<<(rs2&maxShamt64))
	case SLT:
		c.setReg(in.Rd, b2u(int64(rs1) < int64(rs2)))
	case SLTU:
		c.setReg(in.Rd, b2u(rs1 < rs2))
	case XOR:
		c.setReg(in.Rd, rs1^rs2)
	case SRL:
		c.setReg(in.Rd, rs1>>(rs2&maxShamt64))
	case SRA:
		c.setReg(in.Rd, uint64(int64(rs1)>>(rs2&maxShamt64)))
	case OR:
		c.setReg(in.Rd, rs1|rs2)
	case AND:
		c.setReg(in.Rd, rs1&rs2)
	case ADDW:
		c.setReg(in.Rd, sext32(uint32(rs1)+uint32(rs2)))
	case SUBW:
		c.setReg(in.Rd, sext32(uint32(rs1)-uint32(rs2)))
	case SLLW:
		c.setReg(in.Rd, sext32(uint32(rs1)<<(rs2&maxShamt32)))
	case SRLW:
		c.setReg(in.Rd, sext32(uint32(rs1)>>(rs2&maxShamt32)))
	case SRAW:
		c.setReg(in.Rd, sext32(uint32(int32(rs1)>>(rs2&maxShamt32))))

	case MUL:
		c.setReg(in.Rd, rs1*rs2)
	case MULH:
		c.setReg(in.Rd, mulh(int64(rs1), int64(rs2)))
	case MULHSU:
		c.setReg(in.Rd, mulhsu(int64(rs1), rs2))
	case MULHU:
		hi, _ := bits.Mul64(rs1, rs2)
		c.setReg(in.Rd, hi)
	case DIV:
		c.setReg(in.Rd, uint64(divS(int64(rs1), int64(rs2))))
	case DIVU:
		c.setReg(in.Rd, divU(rs1, rs2))
	case REM:
		c.setReg(in.Rd, uint64(remS(int64(rs1), int64(rs2))))
	case REMU:
		c.setReg(in.Rd, remU(rs1, rs2))
	case MULW:
		c.setReg(in.Rd, sext32(uint32(rs1)*uint32(rs2)))
	case DIVW:
		c.setReg(in.Rd, sext32(uint32(divS32(int32(rs1), int32(rs2)))))
	case DIVUW:
		c.setReg(in.Rd, sext32(divU32(uint32(rs1), uint32(rs2))))
	case REMW:
		c.setReg(in.Rd, sext32(uint32(remS32(int32(rs1), int32(rs2)))))
	case REMUW:
		c.setReg(in.Rd, sext32(remU32(uint32(rs1), uint32(rs2))))

	case FENCE:
		// Architecturally a no-op in this single-hart model; timing
		// models charge the pipeline-flush cost.
	case FENCEI:
		// fence.i makes prior stores visible to fetch: drop every
		// memoized decode. Timing models charge the flush cost.
		c.flushDecode()

	case ECALL:
		if c.Ecall != nil {
			if c.Ecall(c) {
				c.halt(r, &next)
				r.Halt = true
			}
		} else {
			c.halt(r, &next)
			r.Halt = true
		}
	case EBREAK:
		c.halt(r, &next)
		r.Halt = true

	case CSRRW, CSRRS, CSRRC, CSRRWI, CSRRSI, CSRRCI:
		c.execCSR(in, rs1)
	}

	if r.Taken {
		next = c.PC + uint64(in.Imm)
	}
	r.NextPC = next
	c.PC = next
	c.InstRet++
	return r, nil
}

func (c *CPU) halt(r Retired, next *uint64) {
	c.Halted = true
	c.ExitCode = c.Reg(A0)
	*next = r.PC // halted CPUs do not advance
}

func (c *CPU) execCSR(in Inst, rs1 uint64) {
	addr := uint16(in.Imm)
	var old uint64
	if c.CSR != nil {
		old = c.CSR.ReadCSR(addr)
	}
	src := rs1
	switch in.Op {
	case CSRRWI, CSRRSI, CSRRCI:
		src = uint64(in.CSRImm)
	}
	var newVal uint64
	write := true
	switch in.Op {
	case CSRRW, CSRRWI:
		newVal = src
	case CSRRS, CSRRSI:
		newVal = old | src
		write = src != 0
	case CSRRC, CSRRCI:
		newVal = old &^ src
		write = src != 0
	}
	if write && c.CSR != nil {
		c.CSR.WriteCSR(addr, newVal)
	}
	c.setReg(in.Rd, old)
}

// Run executes until the CPU halts or maxInsts instructions retire,
// returning the number of retired instructions. It rides the RunFor
// fast path (superblocks when enabled), which is bit-identical to a
// Step loop.
func (c *CPU) Run(maxInsts uint64) (uint64, error) {
	done, err := c.RunFor(maxInsts)
	if err != nil {
		return done, err
	}
	if !c.Halted {
		return done, fmt.Errorf("isa: instruction budget %d exhausted at pc 0x%x", maxInsts, c.PC)
	}
	return done, nil
}

func extendLoad(op Op, raw uint64) uint64 {
	switch op {
	case LB:
		return uint64(int64(int8(raw)))
	case LH:
		return uint64(int64(int16(raw)))
	case LW:
		return uint64(int64(int32(raw)))
	}
	return raw // LD and unsigned loads
}

func sext32(v uint32) uint64 { return uint64(int64(int32(v))) }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func mulh(a, b int64) uint64 {
	hi, _ := bits.Mul64(uint64(a), uint64(b))
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	return hi
}

func mulhuHi(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	return hi
}

func mulhsu(a int64, b uint64) uint64 {
	hi, _ := bits.Mul64(uint64(a), b)
	if a < 0 {
		hi -= b
	}
	return hi
}

func divS(a, b int64) int64 {
	switch {
	case b == 0:
		return -1
	case a == -1<<63 && b == -1:
		return a
	}
	return a / b
}

func divU(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func remS(a, b int64) int64 {
	switch {
	case b == 0:
		return a
	case a == -1<<63 && b == -1:
		return 0
	}
	return a % b
}

func remU(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}

func divS32(a, b int32) int32 {
	switch {
	case b == 0:
		return -1
	case a == -1<<31 && b == -1:
		return a
	}
	return a / b
}

func divU32(a, b uint32) uint32 {
	if b == 0 {
		return ^uint32(0)
	}
	return a / b
}

func remS32(a, b int32) int32 {
	switch {
	case b == 0:
		return a
	case a == -1<<31 && b == -1:
		return 0
	}
	return a % b
}

func remU32(a, b uint32) uint32 {
	if b == 0 {
		return a
	}
	return a % b
}
