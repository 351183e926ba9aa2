package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randInstr builds a random but encodable instruction for op.
func randInstr(r *rand.Rand, op Op) Instr {
	reg := func() Reg { return Reg(r.Intn(NumArchRegs)) }
	in := Instr{Op: op, Rd: reg(), Rs: reg(), Rt: reg()}
	switch {
	case op == OpSLL || op == OpSRL || op == OpSRA:
		in.Imm = int32(r.Intn(32))
	case op == OpANDI || op == OpORI || op == OpXORI || op == OpLUI:
		in.Imm = int32(r.Intn(0x10000))
	case op == OpJ || op == OpJAL:
		in.Rd, in.Rs, in.Rt = 0, 0, 0
		in.Target = uint32(r.Intn(1 << 26))
	case op == OpNOP || op == OpHALT:
		in = Instr{Op: op}
	default:
		in.Imm = int32(int16(r.Uint32()))
	}
	return in
}

// encodableOps lists every op that has a binary encoding.
func encodableOps() []Op {
	var ops []Op
	for o := Op(1); o < numOps; o++ {
		ops = append(ops, o)
	}
	return ops
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, op := range encodableOps() {
		for k := 0; k < 200; k++ {
			in := randInstr(r, op)
			w, err := in.Encode()
			if err != nil {
				t.Fatalf("encode %v: %v", in, err)
			}
			out, err := Decode(w)
			if err != nil {
				t.Fatalf("decode %v (0x%08x): %v", in, w, err)
			}
			// Canonicalize fields that the encoding legitimately drops.
			want := canonical(in)
			got := canonical(out)
			if want != got {
				t.Fatalf("round trip op %s: %+v -> 0x%08x -> %+v", op, want, w, got)
			}
		}
	}
}

// canonical zeroes fields the format does not carry, so round-trip
// comparison is meaningful.
func canonical(in Instr) Instr {
	switch in.Op {
	case OpNOP, OpHALT:
		return Instr{Op: in.Op}
	case OpJ, OpJAL:
		return Instr{Op: in.Op, Target: in.Target}
	case OpJR:
		return Instr{Op: OpJR, Rs: in.Rs}
	case OpJALR:
		return Instr{Op: OpJALR, Rd: in.Rd, Rs: in.Rs}
	case OpSLL, OpSRL, OpSRA:
		return Instr{Op: in.Op, Rd: in.Rd, Rt: in.Rt, Imm: in.Imm}
	case OpLUI:
		return Instr{Op: OpLUI, Rt: in.Rt, Imm: in.Imm}
	case OpBLEZ, OpBGTZ, OpBLTZ, OpBGEZ:
		return Instr{Op: in.Op, Rs: in.Rs, Imm: in.Imm}
	}
	if isIType(in.Op) || in.Op.IsMem() || in.Op == OpBEQ || in.Op == OpBNE {
		return Instr{Op: in.Op, Rs: in.Rs, Rt: in.Rt, Imm: in.Imm}
	}
	return Instr{Op: in.Op, Rd: in.Rd, Rs: in.Rs, Rt: in.Rt}
}

func TestDecodeZeroIsNop(t *testing.T) {
	in, err := Decode(0)
	if err != nil || in.Op != OpNOP {
		t.Fatalf("Decode(0) = %v, %v; want nop", in, err)
	}
}

func TestEncodeRejectsHardwareRegs(t *testing.T) {
	in := Instr{Op: OpADD, Rd: HwAddr, Rs: T0, Rt: T1}
	if _, err := in.Encode(); err == nil {
		t.Fatal("expected error encoding hardware-only register")
	}
}

func TestEncodeRejectsOutOfRangeImm(t *testing.T) {
	cases := []Instr{
		{Op: OpADDI, Rt: T0, Rs: T1, Imm: 40000},
		{Op: OpADDI, Rt: T0, Rs: T1, Imm: -40000},
		{Op: OpORI, Rt: T0, Rs: T1, Imm: -1},
		{Op: OpSLL, Rd: T0, Rt: T1, Imm: 32},
		{Op: OpJ, Target: 1 << 26},
	}
	for _, in := range cases {
		if _, err := in.Encode(); err == nil {
			t.Errorf("expected range error encoding %+v", in)
		}
	}
}

func TestDestAndSrcs(t *testing.T) {
	cases := []struct {
		in   Instr
		dest Reg
		srcs []Reg
	}{
		{Instr{Op: OpADD, Rd: T0, Rs: T1, Rt: T2}, T0, []Reg{T1, T2}},
		{Instr{Op: OpADDI, Rt: T0, Rs: T1, Imm: 4}, T0, []Reg{T1}},
		{Instr{Op: OpLW, Rt: T0, Rs: SP, Imm: 8}, T0, []Reg{SP}},
		{Instr{Op: OpSW, Rt: T0, Rs: SP, Imm: 8}, NoReg, []Reg{SP, T0}},
		{Instr{Op: OpBEQ, Rs: T0, Rt: T1}, NoReg, []Reg{T0, T1}},
		{Instr{Op: OpBLTZ, Rs: T0}, NoReg, []Reg{T0}},
		{Instr{Op: OpJ, Target: 4}, NoReg, nil},
		{Instr{Op: OpJAL, Target: 4}, RA, nil},
		{Instr{Op: OpJR, Rs: RA}, NoReg, []Reg{RA}},
		{Instr{Op: OpJALR, Rd: T9, Rs: T0}, T9, []Reg{T0}},
		{Instr{Op: OpLUI, Rt: T0, Imm: 5}, T0, nil},
		{Instr{Op: OpSLL, Rd: T0, Rt: T1, Imm: 3}, T0, []Reg{T1}},
		{Instr{Op: OpNOP}, NoReg, nil},
		{Instr{Op: OpHALT}, NoReg, nil},
		// Writes to $0 are discarded.
		{Instr{Op: OpADD, Rd: Zero, Rs: T1, Rt: T2}, NoReg, []Reg{T1, T2}},
	}
	for _, c := range cases {
		if got := c.in.Dest(); got != c.dest {
			t.Errorf("%v Dest = %v, want %v", c.in, got, c.dest)
		}
		got := c.in.Srcs(nil)
		if len(got) != len(c.srcs) {
			t.Errorf("%v Srcs = %v, want %v", c.in, got, c.srcs)
			continue
		}
		for i := range got {
			if got[i] != c.srcs[i] {
				t.Errorf("%v Srcs = %v, want %v", c.in, got, c.srcs)
				break
			}
		}
	}
}

func TestOpClassification(t *testing.T) {
	if !OpLW.IsLoad() || OpLW.IsStore() || OpLW.MemBytes() != 4 {
		t.Error("lw misclassified")
	}
	if !OpSB.IsStore() || OpSB.MemBytes() != 1 {
		t.Error("sb misclassified")
	}
	if OpLH.MemBytes() != 2 || !OpLH.SignExtendsLoad() || OpLHU.SignExtendsLoad() {
		t.Error("halfword loads misclassified")
	}
	if !OpBEQ.IsBranch() || OpBEQ.IsJump() || !OpBEQ.IsControl() {
		t.Error("beq misclassified")
	}
	if !OpJR.IsJump() || OpJR.IsBranch() {
		t.Error("jr misclassified")
	}
	if OpFDIV.Class() != ClassFPDiv || OpFADD.Class() != ClassFP {
		t.Error("fp proxies misclassified")
	}
	if OpDIVOP.Class() != ClassDiv || OpMUL.Class() != ClassMul {
		t.Error("mul/div misclassified")
	}
}

// TestOpTablesTotal checks the decode tables over every Op value: the
// control predicates agree with the class, and undefined opcodes decode
// as plain ALU ops with no control flow.
func TestOpTablesTotal(t *testing.T) {
	for v := 0; v < 256; v++ {
		o := Op(v)
		if o.IsControl() != (o.IsBranch() || o.IsJump()) || (o.IsBranch() && o.IsJump()) {
			t.Errorf("%v: inconsistent control predicates", o)
		}
		if o.IsControl() != (o.Class() == ClassBranch) {
			t.Errorf("%v: control predicate disagrees with class %d", o, o.Class())
		}
		if o.IsMem() != (o.MemBytes() != 0) {
			t.Errorf("%v: IsMem disagrees with MemBytes", o)
		}
		if o >= numOps && (o.Class() != ClassALU || o.IsControl()) {
			t.Errorf("undefined op %d decodes as class %d", v, o.Class())
		}
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for o := Op(1); o < numOps; o++ {
		got, ok := OpByName(o.String())
		if !ok || got != o {
			t.Errorf("OpByName(%q) = %v, %v", o.String(), got, ok)
		}
	}
	if _, ok := OpByName("bogus"); ok {
		t.Error("OpByName accepted bogus mnemonic")
	}
}

func TestRegByName(t *testing.T) {
	cases := map[string]Reg{
		"$t0": T0, "t0": T0, "$8": T0, "8": T0,
		"$zero": Zero, "sp": SP, "ra": RA, "$hwaddr": HwAddr,
	}
	for name, want := range cases {
		got, ok := RegByName(name)
		if !ok || got != want {
			t.Errorf("RegByName(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
	for _, bad := range []string{"", "$t10x", "99", "$99", "xyz"} {
		if _, ok := RegByName(bad); ok {
			t.Errorf("RegByName(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestRegString(t *testing.T) {
	if T0.String() != "$t0" || HwPred.String() != "$hwpred" || NoReg.String() != "$none" {
		t.Error("register names wrong")
	}
}

func TestDisasmForms(t *testing.T) {
	cases := map[string]Instr{
		"add $t0, $t1, $t2": {Op: OpADD, Rd: T0, Rs: T1, Rt: T2},
		"addi $t0, $t1, -4": {Op: OpADDI, Rt: T0, Rs: T1, Imm: -4},
		"lw $t0, 8($sp)":    {Op: OpLW, Rt: T0, Rs: SP, Imm: 8},
		"sw $t0, -8($sp)":   {Op: OpSW, Rt: T0, Rs: SP, Imm: -8},
		"beq $t0, $t1, 5":   {Op: OpBEQ, Rs: T0, Rt: T1, Imm: 5},
		"bltz $t0, -2":      {Op: OpBLTZ, Rs: T0, Imm: -2},
		"j 0x40":            {Op: OpJ, Target: 0x10},
		"jr $ra":            {Op: OpJR, Rs: RA},
		"sll $t0, $t1, 3":   {Op: OpSLL, Rd: T0, Rt: T1, Imm: 3},
		"lui $t0, 0x1000":   {Op: OpLUI, Rt: T0, Imm: 0x1000},
		"nop":               {Op: OpNOP},
		"halt":              {Op: OpHALT},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// Property: every decodable word that re-encodes yields the same word.
func TestDecodeEncodeFixedPoint(t *testing.T) {
	f := func(w uint32) bool {
		in, err := Decode(w)
		if err != nil {
			return true // not all words decode; that is fine
		}
		w2, err := in.Encode()
		if err != nil {
			return false
		}
		// NOP has two encodings in real MIPS (any sll $0,..); ours is
		// canonical zero.
		if in.Op == OpNOP {
			return w2 == 0
		}
		// Fields outside the format (e.g. shamt bits on R-type ALU ops,
		// rs/rt bits on lui) are dropped by Decode, so compare via a
		// second decode instead of raw words.
		in2, err := Decode(w2)
		return err == nil && canonical(in2) == canonical(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestProgramInstrAt(t *testing.T) {
	p := &Program{
		TextBase: 0x1000,
		Text: []Instr{
			{Op: OpADDI, Rt: T0, Rs: Zero, Imm: 1},
			{Op: OpHALT},
		},
	}
	if in, ok := p.InstrAt(0x1000); !ok || in.Op != OpADDI {
		t.Fatal("InstrAt(base) failed")
	}
	if in, ok := p.InstrAt(0x1004); !ok || in.Op != OpHALT {
		t.Fatal("InstrAt(base+4) failed")
	}
	if _, ok := p.InstrAt(0x1008); ok {
		t.Fatal("InstrAt past end should fail")
	}
	if _, ok := p.InstrAt(0x0ffc); ok {
		t.Fatal("InstrAt below base should fail")
	}
	if _, ok := p.InstrAt(0x1002); ok {
		t.Fatal("InstrAt unaligned should fail")
	}
}

func TestStringContainsMnemonic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, op := range encodableOps() {
		in := randInstr(r, op)
		if !strings.Contains(in.String(), op.String()) &&
			!(op == OpDIVOP || op == OpREMOP) {
			t.Errorf("String of %v missing mnemonic %q", in, op)
		}
	}
}
