package emu

import (
	"testing"

	"dmdp/internal/isa"
	"dmdp/internal/mem"
	"dmdp/internal/trace"
)

// filled is an entry with every byte 0xFF.
var filled = trace.Entry{PC: ^uint32(0), Addr: ^uint32(0), Value: ^uint32(0), Target: ^uint32(0), DepStore: ^uint32(0),
	Op: 0xff, Size: 0xff, DepOverlap: 0xff, Flags: 0xff}

// execInto runs in at pc against fresh copies of regs and m, into slot.
func execInto(in isa.Instr, regs [isa.NumArchRegs]uint32, m *mem.Image, slot trace.Entry) (trace.Entry, [isa.NumArchRegs]uint32, *mem.Image, error) {
	img := m.Clone()
	err := Exec(in, 0x400100, &regs, img, &slot)
	return slot, regs, img, err
}

// TestExecWritesWholeEntry: Exec writes every field of the entry it is
// handed, so for every opcode an entry written over 0xFF bytes equals one
// written over zeroes; and a failing Exec leaves the slot, the registers
// and memory as they were.
func TestExecWritesWholeEntry(t *testing.T) {
	const base = 0x10000100
	var regs [isa.NumArchRegs]uint32
	for r := range regs {
		regs[r] = 0x01020304 * uint32(r)
	}
	regs[isa.Zero] = 0
	rs, rt, rd := isa.Reg(9), isa.Reg(10), isa.Reg(11)
	regs[rs] = base
	m := mem.NewImage()
	m.Write(base+8, 4, 0x80ff7f01)

	ops := 0
	for op := isa.Op(0); op.String() != "op?"; op++ {
		ops++
		in := isa.Instr{Op: op, Rd: rd, Rs: rs, Rt: rt, Imm: 8, Target: 0x100044}
		zero, zregs, _, zerr := execInto(in, regs, m, trace.Entry{})
		full, fregs, _, ferr := execInto(in, regs, m, filled)
		if op == isa.OpInvalid { // fails; checked below
			continue
		}
		if zerr != nil || ferr != nil {
			t.Errorf("%s: %v, %v", op, zerr, ferr)
			continue
		}
		if zero != full || zregs != fregs || zero.PC != 0x400100 || zero.Op != op {
			t.Errorf("%s: over zeroes %+v, over 0xFF %+v", op, zero, full)
		}
	}
	if ops < 50 {
		t.Fatalf("walked %d opcodes; the opcode table ends earlier than expected", ops)
	}

	// Failures: an unimplemented opcode and every unaligned access.
	fails := []isa.Instr{{Op: isa.OpInvalid, Rd: rd, Rs: rs, Rt: rt}}
	for _, op := range []isa.Op{isa.OpLH, isa.OpLHU, isa.OpLW, isa.OpSH, isa.OpSW} {
		for off := int32(1); off < int32(op.MemBytes()); off++ {
			fails = append(fails, isa.Instr{Op: op, Rs: rs, Rt: rt, Imm: 8 + off})
		}
	}
	for _, in := range fails {
		slot, after, img, err := execInto(in, regs, m, filled)
		if err == nil {
			t.Errorf("%s %+v: no error", in.Op, in)
			continue
		}
		if slot != filled || after != regs || img.Read(base+8, 4) != 0x80ff7f01 {
			t.Errorf("%s %+v: a failed Exec wrote the slot %+v, the registers or memory", in.Op, in, slot)
		}
	}
}
