package emu

import (
	"fmt"

	"dmdp/internal/isa"
	"dmdp/internal/trace"
)

// Memory is the data memory Exec reads and writes: Read returns size (1,
// 2 or 4) bytes at addr zero-extended, Write stores the low size bytes of
// val. *mem.Image is one.
type Memory interface {
	Read(addr, size uint32) uint32
	Write(addr, size, val uint32)
}

// Exec executes one instruction against an explicit architectural state:
// a register file plus a data memory. It is the single source of ISA
// semantics, shared by the sequential Emulator (whose memory is its
// private image) and the multicore semantic coupling layer (whose memory
// resolves load values from the global memory order).
//
// regs is mutated in place ($zero and non-architectural registers are
// never written), and the instruction's trace entry is written to *ent:
// PC/Op/Addr/Size/Value/Flags/Target, with ent.Target the next PC.
// DepStore and DepOverlap are zeroed; Analyze fills them. HALT is left to
// the caller to detect (in.Op == isa.OpHALT): Exec itself treats it as a
// no-op. On error neither regs, memory nor *ent is touched.
//
// For stores, m.Read is invoked first on the same address to compute the
// Silent flag (store of an identical value); a memory whose Read has side
// effects must tolerate that probe.
func Exec(in isa.Instr, pc uint32, regs *[isa.NumArchRegs]uint32, m Memory, ent *trace.Entry) error {
	rd := func(r isa.Reg) uint32 {
		if r == isa.Zero || !r.Architectural() {
			return 0
		}
		return regs[r]
	}
	wr := func(r isa.Reg, v uint32) {
		if r != isa.Zero && r.Architectural() {
			regs[r] = v
		}
	}
	branchTarget := func(taken bool) uint32 {
		if taken {
			return pc + 4 + uint32(in.Imm)<<2
		}
		return pc + 4
	}

	var addr, value uint32
	var size, flags uint8
	taken := false
	next := pc + 4

	rs, rt := rd(in.Rs), rd(in.Rt)
	switch in.Op {
	case isa.OpNOP:
	case isa.OpHALT:
	case isa.OpADD, isa.OpADDU:
		wr(in.Rd, rs+rt)
	case isa.OpSUB, isa.OpSUBU:
		wr(in.Rd, rs-rt)
	case isa.OpAND:
		wr(in.Rd, rs&rt)
	case isa.OpOR:
		wr(in.Rd, rs|rt)
	case isa.OpXOR:
		wr(in.Rd, rs^rt)
	case isa.OpNOR:
		wr(in.Rd, ^(rs | rt))
	case isa.OpSLT:
		wr(in.Rd, b2u(int32(rs) < int32(rt)))
	case isa.OpSLTU:
		wr(in.Rd, b2u(rs < rt))
	case isa.OpSLL:
		wr(in.Rd, rt<<uint32(in.Imm))
	case isa.OpSRL:
		wr(in.Rd, rt>>uint32(in.Imm))
	case isa.OpSRA:
		wr(in.Rd, uint32(int32(rt)>>uint32(in.Imm)))
	case isa.OpSLLV:
		wr(in.Rd, rt<<(rs&31))
	case isa.OpSRLV:
		wr(in.Rd, rt>>(rs&31))
	case isa.OpSRAV:
		wr(in.Rd, uint32(int32(rt)>>(rs&31)))
	case isa.OpMUL, isa.OpFMUL:
		wr(in.Rd, uint32(int64(int32(rs))*int64(int32(rt))))
	case isa.OpMULH:
		wr(in.Rd, uint32(uint64(int64(int32(rs))*int64(int32(rt)))>>32))
	case isa.OpDIVOP, isa.OpFDIV:
		wr(in.Rd, divS(rs, rt))
	case isa.OpREMOP:
		wr(in.Rd, remS(rs, rt))
	case isa.OpFADD:
		wr(in.Rd, rs+rt)
	case isa.OpADDI, isa.OpADDIU:
		wr(in.Rt, rs+uint32(in.Imm))
	case isa.OpANDI:
		wr(in.Rt, rs&uint32(uint16(in.Imm)))
	case isa.OpORI:
		wr(in.Rt, rs|uint32(uint16(in.Imm)))
	case isa.OpXORI:
		wr(in.Rt, rs^uint32(uint16(in.Imm)))
	case isa.OpSLTI:
		wr(in.Rt, b2u(int32(rs) < in.Imm))
	case isa.OpSLTIU:
		wr(in.Rt, b2u(rs < uint32(in.Imm)))
	case isa.OpLUI:
		wr(in.Rt, uint32(in.Imm)<<16)
	case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW:
		n := in.Op.MemBytes()
		addr = rs + uint32(in.Imm)
		if addr%n != 0 {
			return unaligned(in.Op, addr, pc)
		}
		value = trace.ExtendLoad(in.Op, m.Read(addr, n))
		wr(in.Rt, value)
		size = uint8(n)
	case isa.OpSB, isa.OpSH, isa.OpSW:
		n := in.Op.MemBytes()
		addr = rs + uint32(in.Imm)
		if addr%n != 0 {
			return unaligned(in.Op, addr, pc)
		}
		mask := uint32(0xffffffff)
		if n < 4 {
			mask = 1<<(8*n) - 1
		}
		if m.Read(addr, n) == rt&mask {
			flags |= trace.FlagSilent
		}
		m.Write(addr, n, rt)
		value, size = rt, uint8(n)
	case isa.OpBEQ:
		taken = rs == rt
		next = branchTarget(taken)
	case isa.OpBNE:
		taken = rs != rt
		next = branchTarget(taken)
	case isa.OpBLEZ:
		taken = int32(rs) <= 0
		next = branchTarget(taken)
	case isa.OpBGTZ:
		taken = int32(rs) > 0
		next = branchTarget(taken)
	case isa.OpBLTZ:
		taken = int32(rs) < 0
		next = branchTarget(taken)
	case isa.OpBGEZ:
		taken = int32(rs) >= 0
		next = branchTarget(taken)
	case isa.OpJ:
		taken = true
		next = in.Target << 2
	case isa.OpJAL:
		taken = true
		wr(isa.RA, pc+4)
		next = in.Target << 2
	case isa.OpJR:
		taken = true
		next = rs
	case isa.OpJALR:
		taken = true
		wr(in.Rd, pc+4)
		next = rs
	default:
		return fmt.Errorf("emu: unimplemented op %s at 0x%08x", in.Op, pc)
	}

	if taken {
		flags |= trace.FlagTaken
	}
	// Field by field: a composite literal is built on the stack with
	// narrow stores and copied out with wide loads that store-to-load
	// forwarding cannot serve.
	ent.PC, ent.Addr, ent.Value, ent.Target, ent.DepStore = pc, addr, value, next, 0
	ent.Op, ent.Size, ent.DepOverlap, ent.Flags = in.Op, size, trace.OverlapNone, flags
	return nil
}

func unaligned(op isa.Op, addr, pc uint32) error {
	return fmt.Errorf("emu: unaligned %s at 0x%08x (pc 0x%08x)", op, addr, pc)
}
