package isa

// Op enumerates the instruction opcodes of the simulated ISA.
type Op uint8

// Opcode set. Integer arithmetic/logic follows MIPS-I; MUL/MULH/DIVOP/REMOP
// replace the HI/LO pair for simplicity (documented deviation); FADD/FMUL/
// FDIV are floating-point proxies that compute on integer registers but
// carry floating-point execution latency and energy, so the Float proxy
// benchmarks stress the same long-latency producer chains the paper's FP
// suite does.
const (
	OpInvalid Op = iota

	// R-type ALU.
	OpADD
	OpADDU
	OpSUB
	OpSUBU
	OpAND
	OpOR
	OpXOR
	OpNOR
	OpSLT
	OpSLTU
	OpSLL // shift by immediate
	OpSRL
	OpSRA
	OpSLLV // shift by register
	OpSRLV
	OpSRAV
	OpMUL   // low 32 bits of product
	OpMULH  // high 32 bits of signed product
	OpDIVOP // signed quotient (0 divisor -> 0)
	OpREMOP // signed remainder (0 divisor -> 0)

	// I-type ALU.
	OpADDI
	OpADDIU
	OpANDI
	OpORI
	OpXORI
	OpSLTI
	OpSLTIU
	OpLUI

	// Loads/stores.
	OpLB
	OpLBU
	OpLH
	OpLHU
	OpLW
	OpSB
	OpSH
	OpSW

	// Branches (no delay slots).
	OpBEQ
	OpBNE
	OpBLEZ
	OpBGTZ
	OpBLTZ
	OpBGEZ

	// Jumps.
	OpJ
	OpJAL
	OpJR
	OpJALR

	// Floating-point proxies (integer semantics, FP latency class).
	OpFADD
	OpFMUL
	OpFDIV

	// Misc.
	OpNOP
	OpHALT

	numOps
)

var opNames = [numOps]string{
	OpInvalid: "invalid",
	OpADD:     "add", OpADDU: "addu", OpSUB: "sub", OpSUBU: "subu",
	OpAND: "and", OpOR: "or", OpXOR: "xor", OpNOR: "nor",
	OpSLT: "slt", OpSLTU: "sltu",
	OpSLL: "sll", OpSRL: "srl", OpSRA: "sra",
	OpSLLV: "sllv", OpSRLV: "srlv", OpSRAV: "srav",
	OpMUL: "mul", OpMULH: "mulh", OpDIVOP: "div", OpREMOP: "rem",
	OpADDI: "addi", OpADDIU: "addiu", OpANDI: "andi", OpORI: "ori",
	OpXORI: "xori", OpSLTI: "slti", OpSLTIU: "sltiu", OpLUI: "lui",
	OpLB: "lb", OpLBU: "lbu", OpLH: "lh", OpLHU: "lhu", OpLW: "lw",
	OpSB: "sb", OpSH: "sh", OpSW: "sw",
	OpBEQ: "beq", OpBNE: "bne", OpBLEZ: "blez", OpBGTZ: "bgtz",
	OpBLTZ: "bltz", OpBGEZ: "bgez",
	OpJ: "j", OpJAL: "jal", OpJR: "jr", OpJALR: "jalr",
	OpFADD: "fadd", OpFMUL: "fmul", OpFDIV: "fdiv",
	OpNOP: "nop", OpHALT: "halt",
}

// String returns the assembler mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

// OpByName resolves an assembler mnemonic.
func OpByName(name string) (Op, bool) {
	for i := Op(1); i < numOps; i++ {
		if opNames[i] == name {
			return i, true
		}
	}
	return OpInvalid, false
}

// Class groups opcodes by execution resource/latency class.
type Class uint8

// Execution classes used by the core's functional units and the power model.
const (
	ClassALU   Class = iota // 1-cycle integer
	ClassMul                // integer multiply
	ClassDiv                // integer divide
	ClassFP                 // FP-proxy add/mul
	ClassFPDiv              // FP-proxy divide
	ClassLoad
	ClassStore
	ClassBranch
	ClassNop
)

// opClass and opFlags are the per-opcode decode tables: the class and
// control-flow predicates below are single indexed loads, sized for every
// Op value so out-of-range opcodes decode as ClassALU with no flags.
var opClass = [256]Class{
	OpLB: ClassLoad, OpLBU: ClassLoad, OpLH: ClassLoad, OpLHU: ClassLoad, OpLW: ClassLoad,
	OpSB: ClassStore, OpSH: ClassStore, OpSW: ClassStore,
	OpBEQ: ClassBranch, OpBNE: ClassBranch, OpBLEZ: ClassBranch, OpBGTZ: ClassBranch,
	OpBLTZ: ClassBranch, OpBGEZ: ClassBranch,
	OpJ: ClassBranch, OpJAL: ClassBranch, OpJR: ClassBranch, OpJALR: ClassBranch,
	OpMUL: ClassMul, OpMULH: ClassMul,
	OpDIVOP: ClassDiv, OpREMOP: ClassDiv,
	OpFADD: ClassFP, OpFMUL: ClassFP,
	OpFDIV: ClassFPDiv,
	OpNOP:  ClassNop, OpHALT: ClassNop,
}

const (
	flagBranch uint8 = 1 << iota // conditional branch
	flagJump                     // unconditional control transfer
	flagIType                    // I-type ALU (Rt = dest, Rs = source)
)

var opFlags = [256]uint8{
	OpBEQ: flagBranch, OpBNE: flagBranch, OpBLEZ: flagBranch, OpBGTZ: flagBranch,
	OpBLTZ: flagBranch, OpBGEZ: flagBranch,
	OpJ: flagJump, OpJAL: flagJump, OpJR: flagJump, OpJALR: flagJump,
	OpADDI: flagIType, OpADDIU: flagIType, OpANDI: flagIType, OpORI: flagIType,
	OpXORI: flagIType, OpSLTI: flagIType, OpSLTIU: flagIType, OpLUI: flagIType,
}

// Class returns the execution class of the opcode.
func (o Op) Class() Class { return opClass[o] }

// IsLoad reports whether the opcode reads memory.
func (o Op) IsLoad() bool { return opClass[o] == ClassLoad }

// IsStore reports whether the opcode writes memory.
func (o Op) IsStore() bool { return opClass[o] == ClassStore }

// IsMem reports whether the opcode accesses memory.
func (o Op) IsMem() bool { return o.IsLoad() || o.IsStore() }

// IsBranch reports whether the opcode is a conditional branch.
func (o Op) IsBranch() bool { return opFlags[o]&flagBranch != 0 }

// IsJump reports whether the opcode is an unconditional control transfer.
func (o Op) IsJump() bool { return opFlags[o]&flagJump != 0 }

// IsControl reports whether the opcode changes control flow.
func (o Op) IsControl() bool { return opFlags[o]&(flagBranch|flagJump) != 0 }

// MemBytes returns the access size in bytes for memory opcodes, 0 otherwise.
func (o Op) MemBytes() uint32 {
	switch o {
	case OpLB, OpLBU, OpSB:
		return 1
	case OpLH, OpLHU, OpSH:
		return 2
	case OpLW, OpSW:
		return 4
	}
	return 0
}

// SignExtendsLoad reports whether a sub-word load sign-extends its result.
func (o Op) SignExtendsLoad() bool { return o == OpLB || o == OpLH }
