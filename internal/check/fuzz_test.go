package check_test

import (
	"fmt"
	"strings"
	"testing"

	"icicle/internal/asm"
	"icicle/internal/boom"
	"icicle/internal/check"
	"icicle/internal/isa"
	"icicle/internal/kernel"
	"icicle/internal/mem"
)

// FuzzAssemble throws arbitrary source at the assembler: it must either
// reject the input or produce a program whose text disassembles slot for
// slot — never panic.
func FuzzAssemble(f *testing.F) {
	f.Add("\tli   a0, 42\n\tecall\n")
	f.Add("loop:\n\taddi a1, a1, -1\n\tbnez a1, loop\n\tecall\n")
	f.Add("\tamoadd.d a0, a1, (s0)\n\tfence.i\n")
	f.Add(kernel.Mixed.Program(1))
	f.Add(kernel.MemoryAliasing.Program(1))
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := asm.Assemble(src)
		if err != nil {
			return
		}
		insts := prog.Disassemble()
		if len(insts)*isa.InstBytes != prog.TextSize {
			t.Fatalf("disassembled %d insts from %d text bytes", len(insts), prog.TextSize)
		}
	})
}

// FuzzDecodeEncodeRoundtrip checks the decoder/encoder fixpoint: any word
// that decodes to a legal instruction must re-encode successfully, and the
// canonical encoding must decode back to the identical Inst. (Decode is
// deliberately lenient about don't-care bits, so Encode(Decode(w)) == w
// does not hold; the fixpoint does.)
func FuzzDecodeEncodeRoundtrip(f *testing.F) {
	f.Add(uint32(0x00000013)) // addi x0, x0, 0
	f.Add(uint32(0x00000073)) // ecall
	f.Add(uint32(0x40b50533)) // sub a0, a0, a1
	f.Add(uint32(0xfe0718e3)) // bnez a4, -16
	f.Add(uint32(0x0605b52f)) // amoadd.d a0, zero-ish AMO pattern
	f.Fuzz(func(t *testing.T, word uint32) {
		in := isa.Decode(word)
		if in.Op == isa.ILLEGAL {
			return
		}
		canon, err := isa.Encode(in)
		if err != nil {
			t.Fatalf("%08x decodes to %v but does not encode: %v", word, in, err)
		}
		if got := isa.Decode(canon); got != in {
			t.Fatalf("%08x: decode %v, re-encode %08x, re-decode %v", word, in, canon, got)
		}
	})
}

// FuzzDifferential feeds mutated programs through a reduced oracle (Rocket
// plus the smallest and largest BOOM) with all metamorphic harnesses on.
// Inputs that do not assemble or do not terminate within the budget are
// uninteresting; anything that runs must satisfy every invariant.
func FuzzDifferential(f *testing.F) {
	f.Add("\tli   a0, 7\n\tecall\n")
	f.Add("\tli   s11, 9\nr:\n\taddi a1, a1, 5\n\tmul  a2, a1, s11\n\taddi s11, s11, -1\n\tbnez s11, r\n\txor  a0, a1, a2\n\tecall\n")
	f.Add("\tli   s0, 4194304\n\tli   t0, 77\n\tsd   t0, 0(s0)\n\tlbu  a1, 1(s0)\n\tamoxor.d a0, a1, (s0)\n\tecall\n")
	f.Add(kernel.BranchDense.Program(2))
	f.Add(kernel.LoopCarried.Program(2))
	eng := check.New(
		check.WithBoomSizes(boom.Small, boom.Giga),
		check.WithWorkers(1),
		check.WithMaxInsts(300_000),
	)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		// Programs that read PMU CSRs legitimately diverge across timing
		// models (cycle counts differ per model) — out of oracle scope.
		if strings.Contains(src, "csr") {
			return
		}
		rep, err := eng.CheckSource(src)
		if err != nil {
			return
		}
		if rep.Failed() {
			t.Fatalf("invariant failure on fuzzed program:\n%s\nprogram:\n%s", rep, src)
		}
	})
}

// FuzzStallSkipDifferential pins the event-driven stall-skip cycle loop
// against per-cycle stepping: any program that assembles and terminates
// must produce a bit-identical Result (cycles, every tally, lane tallies,
// cache stats) and register file with the skip on and off, on Rocket and
// on the smallest and largest BOOM. The seeds lean on memory aliasing,
// pointer chases, AMOs, and fences — the paths where quiescence bounds
// interact with MSHR refills, replays, and machine clears.
func FuzzStallSkipDifferential(f *testing.F) {
	f.Add("\tli   a0, 42\n\tecall\n")
	// Pointer chase through a linked ring: every load depends on the last.
	f.Add("\tli   s0, 4194304\n\tsd   s0, 0(s0)\n\tli   t0, 50\nc:\n\tld   s0, 0(s0)\n\taddi t0, t0, -1\n\tbnez t0, c\n\txor  a0, s0, t0\n\tecall\n")
	// Store/load aliasing with mixed widths plus an AMO on the same line.
	f.Add("\tli   s0, 4194304\n\tli   t0, 77\n\tsd   t0, 0(s0)\n\tlbu  a1, 1(s0)\n\tamoadd.d a2, a1, (s0)\n\tsb   a2, 3(s0)\n\tlw   a3, 0(s0)\n\txor  a0, a1, a3\n\tecall\n")
	// Fence-separated store bursts (drain + replay pressure).
	f.Add("\tli   s0, 4194304\n\tli   t0, 9\nf:\n\tsd   t0, 0(s0)\n\tfence\n\tld   a1, 0(s0)\n\taddi t0, t0, -1\n\tbnez t0, f\n\tmv   a0, a1\n\tecall\n")
	f.Add(kernel.MemoryAliasing.Program(3))
	f.Add(kernel.LoopCarried.Program(2))
	eng := check.New(
		check.WithBoomSizes(boom.Small, boom.Giga),
		check.WithWorkers(1),
		check.WithMaxInsts(300_000),
		check.WithoutDeterminism(),
		check.WithoutTrace(),
	)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		if strings.Contains(src, "csr") {
			return
		}
		rep, err := eng.CheckSource(src)
		if err != nil {
			return
		}
		if rep.Failed() {
			t.Fatalf("invariant failure on fuzzed program:\n%s\nprogram:\n%s", rep, src)
		}
	})
}

// FuzzSuperblockDifferential pins the superblock threaded-code engine
// against the plain Step loop: any program that assembles — including
// self-modifying ones that store over their own instruction stream —
// must produce identical architectural state, identical Retired
// streams, identical memory images, and identical errors on both
// engines. The seeds cover the invalidation machinery: full-word and
// single-byte (partial-overlap) stores into the executing block, into
// other blocks, and fence.i flushes.
func FuzzSuperblockDifferential(f *testing.F) {
	f.Add("\tli   a0, 42\n\tecall\n")
	f.Add("loop:\n\taddi a1, a1, -1\n\tbnez a1, loop\n\tecall\n")
	// Copy the instruction at +12 over the one at +16 (full-word
	// self-modification inside the executing block).
	f.Add("\tauipc t0, 0\n\tlw   t1, 12(t0)\n\tsw   t1, 16(t0)\n\taddi a0, a0, 3\n\taddi a0, a0, 5\n\tecall\n")
	// Single-byte partial-overlap store: rewrite the high immediate byte
	// of the instruction at +16 before it executes.
	f.Add("\tauipc t0, 0\n\tli   t1, 0x12\n\tsb   t1, 19(t0)\n\taddi a0, x0, 100\n\taddi a1, x0, 0x064\n\tecall\n")
	// Rewrite a loop body from a prior block, with a fence.i thrown in.
	f.Add("\tauipc t0, 0\n\tli   t1, 0x00150513\n\tli   t2, 2\nl:\n\tsw   t1, 28(t0)\n\tfence.i\n\taddi t2, t2, -1\n\taddi a0, a0, 1\n\tbnez t2, l\n\tecall\n")
	f.Add(kernel.LoopCarried.Program(2))
	const budget = 50_000
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		prog, err := asm.Assemble(src)
		if err != nil {
			return
		}
		// Reference: plain Step loop, trace recorded.
		refMem := mem.NewSparse()
		prog.LoadInto(refMem)
		ref := isa.NewCPU(refMem, prog.Entry)
		ref.SetSuperblocks(false)
		var trace []isa.Retired
		_, refErr := ref.RunForTraced(budget, func(r isa.Retired) { trace = append(trace, r) })

		// Subject: superblock engine, compared record by record.
		sbMem := mem.NewSparse()
		prog.LoadInto(sbMem)
		sb := isa.NewCPU(sbMem, prog.Entry)
		sb.SetSuperblocks(true)
		idx := 0
		mismatch := -1
		_, sbErr := sb.RunForTraced(budget, func(r isa.Retired) {
			if mismatch < 0 && (idx >= len(trace) || trace[idx] != r) {
				mismatch = idx
			}
			idx++
		})

		if (refErr == nil) != (sbErr == nil) {
			t.Fatalf("error divergence: step=%v superblock=%v\nprogram:\n%s", refErr, sbErr, src)
		}
		if refErr != nil && refErr.Error() != sbErr.Error() {
			t.Fatalf("error text divergence:\n step:       %v\n superblock: %v\nprogram:\n%s", refErr, sbErr, src)
		}
		if mismatch >= 0 {
			got := "<none>"
			if mismatch < idx {
				got = "see superblock stream"
			}
			t.Fatalf("Retired stream diverges at %d (%s)\nprogram:\n%s", mismatch, got, src)
		}
		if idx != len(trace) {
			t.Fatalf("retired %d insts on superblock engine, %d on step\nprogram:\n%s", idx, len(trace), src)
		}
		if sb.X != ref.X || sb.PC != ref.PC || sb.InstRet != ref.InstRet ||
			sb.Halted != ref.Halted || sb.ExitCode != ref.ExitCode {
			t.Fatalf("architectural state divergence\nprogram:\n%s", src)
		}
		if sbMem.Checksum() != refMem.Checksum() {
			t.Fatalf("memory image divergence\nprogram:\n%s", src)
		}

		// Warm leg: the event executor behind functional warming must
		// report the same events on both engines. Alternating short
		// RunFor and RunWarm calls enters blocks mid-way, as the sampled
		// engines do at every warm-span boundary.
		warmRef, refWarmMem, refWarmErr := runWarmLeg(prog, false, budget)
		warmSB, sbWarmMem, sbWarmErr := runWarmLeg(prog, true, budget)
		if fmt.Sprint(refWarmErr) != fmt.Sprint(sbWarmErr) {
			t.Fatalf("warm leg error divergence: step=%v superblock=%v\nprogram:\n%s", refWarmErr, sbWarmErr, src)
		}
		if len(warmSB.events) != len(warmRef.events) {
			t.Fatalf("warm leg: %d events on superblock engine, %d on step\nprogram:\n%s",
				len(warmSB.events), len(warmRef.events), src)
		}
		for i := range warmRef.events {
			if warmSB.events[i] != warmRef.events[i] {
				t.Fatalf("warm event %d diverges:\n superblock %+v\n step       %+v\nprogram:\n%s",
					i, warmSB.events[i], warmRef.events[i], src)
			}
		}
		a, b := warmSB.cpu, warmRef.cpu
		if a.X != b.X || a.PC != b.PC || a.InstRet != b.InstRet || a.Halted != b.Halted || a.ExitCode != b.ExitCode {
			t.Fatalf("warm leg: architectural state divergence\nprogram:\n%s", src)
		}
		if sbWarmMem.Checksum() != refWarmMem.Checksum() {
			t.Fatalf("warm leg: memory image divergence\nprogram:\n%s", src)
		}
	})
}

// warmEvent is one isa.WarmSink call, recorded.
type warmEvent struct {
	kind  byte // 'f'etch, 'b'ranch, 'j'ump, 'm'em
	a, b  uint64
	taken bool
}

// warmRecorder is an isa.WarmSink that records its events.
type warmRecorder struct {
	cpu    *isa.CPU
	events []warmEvent
}

func (r *warmRecorder) Fetch(pc uint64) { r.events = append(r.events, warmEvent{kind: 'f', a: pc}) }
func (r *warmRecorder) Branch(pc uint64, taken bool, next uint64) {
	r.events = append(r.events, warmEvent{kind: 'b', a: pc, b: next, taken: taken})
}
func (r *warmRecorder) Jump(pc, next uint64) {
	r.events = append(r.events, warmEvent{kind: 'j', a: pc, b: next})
}
func (r *warmRecorder) Mem(addr uint64, write bool) {
	r.events = append(r.events, warmEvent{kind: 'm', a: addr, taken: write})
}

// runWarmLeg runs prog for up to budget instructions in alternating
// RunFor(3) and RunWarm(13) calls with 16-byte fetch blocks, recording
// the warm events.
func runWarmLeg(prog *asm.Program, superblocks bool, budget uint64) (*warmRecorder, *mem.Sparse, error) {
	m := mem.NewSparse()
	prog.LoadInto(m)
	cpu := isa.NewCPU(m, prog.Entry)
	cpu.SetSuperblocks(superblocks)
	rec := &warmRecorder{cpu: cpu}
	for cpu.InstRet < budget && !cpu.Halted {
		if _, err := cpu.RunFor(3); err != nil {
			return rec, m, err
		}
		if _, err := cpu.RunWarm(13, 4, rec); err != nil {
			return rec, m, err
		}
	}
	return rec, m, nil
}
