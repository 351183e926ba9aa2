package asm

import (
	"strings"
	"testing"

	"dmdp/internal/isa"
)

func mustAssemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestBasicProgram(t *testing.T) {
	p := mustAssemble(t, `
		.text
	main:
		addi $t0, $zero, 5
		add  $t1, $t0, $t0
		halt
	`)
	if len(p.Text) != 3 {
		t.Fatalf("got %d instructions", len(p.Text))
	}
	if p.Entry != p.TextBase {
		t.Fatalf("entry %x != text base %x", p.Entry, p.TextBase)
	}
	want := []isa.Instr{
		{Op: isa.OpADDI, Rt: isa.T0, Rs: isa.Zero, Imm: 5},
		{Op: isa.OpADD, Rd: isa.T1, Rs: isa.T0, Rt: isa.T0},
		{Op: isa.OpHALT},
	}
	for i, w := range want {
		if p.Text[i] != w {
			t.Errorf("instr %d = %v, want %v", i, p.Text[i], w)
		}
	}
}

func TestBranchLabelResolution(t *testing.T) {
	p := mustAssemble(t, `
	main:
		addi $t0, $zero, 10
	loop:
		addi $t0, $t0, -1
		bnez $t0, loop
		beq  $t0, $zero, done
		nop
	done:
		halt
	`)
	// bnez at index 2, loop at index 1: disp = (1-3) = -2
	if in := p.Text[2]; in.Op != isa.OpBNE || in.Imm != -2 {
		t.Fatalf("bnez = %v", in)
	}
	// beq at index 3, done at index 5: disp = 5-4 = 1
	if in := p.Text[3]; in.Op != isa.OpBEQ || in.Imm != 1 {
		t.Fatalf("beq = %v", in)
	}
}

func TestForwardAndBackwardJumps(t *testing.T) {
	p := mustAssemble(t, `
	main:
		j end
	mid:
		jr $ra
	end:
		jal mid
		halt
	`)
	endAddr := p.Symbols["end"]
	if in := p.Text[0]; in.Op != isa.OpJ || in.Target != endAddr>>2 {
		t.Fatalf("j = %v, end=0x%x", in, endAddr)
	}
	midAddr := p.Symbols["mid"]
	if in := p.Text[2]; in.Op != isa.OpJAL || in.Target != midAddr>>2 {
		t.Fatalf("jal = %v", in)
	}
}

func TestDataDirectives(t *testing.T) {
	p := mustAssemble(t, `
		.data
	tbl:
		.word 1, 2, 0x10000, -1
	h:
		.half 0x1234
	b:
		.byte 7, 8
		.align 2
	arr:
		.space 16
	str:
		.asciiz "hi"
	`)
	if got := p.Symbols["tbl"]; got != p.DataBase {
		t.Fatalf("tbl at 0x%x", got)
	}
	// words: 1,2,0x10000,-1 → 16 bytes.
	if p.Symbols["h"] != p.DataBase+16 {
		t.Fatalf("h at 0x%x", p.Symbols["h"])
	}
	if p.Symbols["b"] != p.DataBase+18 {
		t.Fatalf("b at 0x%x", p.Symbols["b"])
	}
	if p.Symbols["arr"]%4 != 0 {
		t.Fatalf("arr not aligned: 0x%x", p.Symbols["arr"])
	}
	if p.Data[0] != 1 || p.Data[4] != 2 {
		t.Fatal("word data wrong")
	}
	if p.Data[12] != 0xff || p.Data[15] != 0xff {
		t.Fatal("-1 word wrong")
	}
	strOff := p.Symbols["str"] - p.DataBase
	if string(p.Data[strOff:strOff+2]) != "hi" || p.Data[strOff+2] != 0 {
		t.Fatal("asciiz wrong")
	}
}

func TestWordWithSymbol(t *testing.T) {
	p := mustAssemble(t, `
		.data
	a:
		.word 42
	ptr:
		.word a, a+4
	`)
	off := p.Symbols["ptr"] - p.DataBase
	got := uint32(p.Data[off]) | uint32(p.Data[off+1])<<8 |
		uint32(p.Data[off+2])<<16 | uint32(p.Data[off+3])<<24
	if got != p.Symbols["a"] {
		t.Fatalf(".word a = 0x%x, want 0x%x", got, p.Symbols["a"])
	}
	got2 := uint32(p.Data[off+4]) | uint32(p.Data[off+5])<<8 |
		uint32(p.Data[off+6])<<16 | uint32(p.Data[off+7])<<24
	if got2 != p.Symbols["a"]+4 {
		t.Fatalf(".word a+4 = 0x%x", got2)
	}
}

func TestPseudoLi(t *testing.T) {
	p := mustAssemble(t, `
		li $t0, 5
		li $t1, -5
		li $t2, 0x9000
		li $t3, 0x12345678
		halt
	`)
	if p.Text[0].Op != isa.OpADDIU || p.Text[0].Imm != 5 {
		t.Fatalf("li small = %v", p.Text[0])
	}
	if p.Text[1].Op != isa.OpADDIU || p.Text[1].Imm != -5 {
		t.Fatalf("li negative = %v", p.Text[1])
	}
	if p.Text[2].Op != isa.OpORI || p.Text[2].Imm != 0x9000 {
		t.Fatalf("li 0x9000 = %v", p.Text[2])
	}
	if p.Text[3].Op != isa.OpLUI || p.Text[3].Imm != 0x1234 {
		t.Fatalf("li big hi = %v", p.Text[3])
	}
	if p.Text[4].Op != isa.OpORI || p.Text[4].Imm != 0x5678 {
		t.Fatalf("li big lo = %v", p.Text[4])
	}
}

func TestPseudoLaAndMemAccess(t *testing.T) {
	p := mustAssemble(t, `
		.data
	buf:
		.space 64
		.text
	main:
		la $t0, buf
		lw $t1, 0($t0)
		sw $t1, 8($t0)
		halt
	`)
	if p.Text[0].Op != isa.OpLUI || p.Text[1].Op != isa.OpORI {
		t.Fatal("la expansion wrong")
	}
	hi := uint32(p.Text[0].Imm) << 16
	lo := uint32(p.Text[1].Imm)
	if hi|lo != p.Symbols["buf"] {
		t.Fatalf("la value 0x%x != buf 0x%x", hi|lo, p.Symbols["buf"])
	}
	if p.Text[3].Op != isa.OpSW || p.Text[3].Imm != 8 {
		t.Fatalf("sw = %v", p.Text[3])
	}
}

func TestSymbolOffsetOutOfRangeRejected(t *testing.T) {
	_, err := Assemble(`
		.data
	buf:
		.space 64
		.text
		sw $t1, buf+8($t0)
	`)
	if err == nil {
		t.Fatal("expected out-of-range offset error for absolute symbol offset")
	}
}

func TestLabelOffsetsAcrossPseudo(t *testing.T) {
	// Labels after multi-word pseudos must account for expansion.
	p := mustAssemble(t, `
	main:
		li $t0, 0x12345678
	after:
		halt
	`)
	if p.Symbols["after"] != p.TextBase+8 {
		t.Fatalf("after at 0x%x, want 0x%x", p.Symbols["after"], p.TextBase+8)
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"bogus $t0, $t1",
		"addi $t0, $t1",           // wrong arity
		"addi $t0, $t1, 99999999", // handled at encode level? resolve passes; but range enforced by emit? (kept permissive)
		"lw $t0, buf",             // missing (reg)
		"add $t0, $t1, $99",
		"j unknown_label",
		"beq $t0, $t1, nowhere",
		".data\n.word nope",
		"dup: nop\ndup: nop",
		"9bad: nop",
		".space 4", // data directive in .text
		".data\naddi $t0, $t0, 1",
		"jalr $t0, $t1, $t2",
		"sll $t0, $t1, 55",
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			// addi range is checked at encode time, not assembly time.
			if strings.Contains(src, "99999999") {
				continue
			}
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("nop\nnop\nbogus\n")
	if err == nil {
		t.Fatal("expected error")
	}
	ae, ok := err.(*Error)
	if !ok || ae.Line != 3 {
		t.Fatalf("error = %v, want line 3", err)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	p := mustAssemble(t, `
		# full-line comment
		nop   # trailing comment
		nop   ; alt comment
	`)
	if len(p.Text) != 2 {
		t.Fatalf("got %d instructions", len(p.Text))
	}
}

func TestMultipleLabelsSameAddress(t *testing.T) {
	p := mustAssemble(t, "a: b: nop\nhalt")
	if p.Symbols["a"] != p.Symbols["b"] {
		t.Fatal("stacked labels should share an address")
	}
}

func TestAllEncodableInstructionsAssemble(t *testing.T) {
	src := `
	main:
		add $t0, $t1, $t2
		addu $t0, $t1, $t2
		sub $t0, $t1, $t2
		subu $t0, $t1, $t2
		and $t0, $t1, $t2
		or $t0, $t1, $t2
		xor $t0, $t1, $t2
		nor $t0, $t1, $t2
		slt $t0, $t1, $t2
		sltu $t0, $t1, $t2
		sll $t0, $t1, 4
		srl $t0, $t1, 4
		sra $t0, $t1, 4
		sllv $t0, $t1, $t2
		srlv $t0, $t1, $t2
		srav $t0, $t1, $t2
		mul $t0, $t1, $t2
		mulh $t0, $t1, $t2
		div $t0, $t1, $t2
		rem $t0, $t1, $t2
		addi $t0, $t1, -4
		addiu $t0, $t1, 4
		andi $t0, $t1, 15
		ori $t0, $t1, 15
		xori $t0, $t1, 15
		slti $t0, $t1, 3
		sltiu $t0, $t1, 3
		lui $t0, 0x1234
		lb $t0, 0($t1)
		lbu $t0, 1($t1)
		lh $t0, 2($t1)
		lhu $t0, 2($t1)
		lw $t0, 4($t1)
		sb $t0, 0($t1)
		sh $t0, 2($t1)
		sw $t0, 4($t1)
		beq $t0, $t1, main
		bne $t0, $t1, main
		blez $t0, main
		bgtz $t0, main
		bltz $t0, main
		bgez $t0, main
		fadd $t0, $t1, $t2
		fmul $t0, $t1, $t2
		fdiv $t0, $t1, $t2
		j main
		jal main
		jalr $t1
		jalr $t0, $t1
		jr $ra
		nop
		halt
	`
	p := mustAssemble(t, src)
	// Every instruction must also encode and decode.
	for i, in := range p.Text {
		w, err := in.Encode()
		if err != nil {
			t.Fatalf("instr %d (%v) encode: %v", i, in, err)
		}
		if _, err := isa.Decode(w); err != nil {
			t.Fatalf("instr %d (%v) decode: %v", i, in, err)
		}
	}
}

func TestEquConstants(t *testing.T) {
	p := mustAssemble(t, `
	.equ SIZE, 16
	.equ MASK, 0xff
main:
	li $t0, SIZE
	andi $t1, $t0, MASK
	addi $t2, $zero, SIZE
	halt
	`)
	// li with a symbolic constant uses the two-word lui+ori form.
	if p.Text[0].Op != isa.OpLUI || p.Text[1].Op != isa.OpORI || p.Text[1].Imm != 16 {
		t.Fatalf("li SIZE = %v %v", p.Text[0], p.Text[1])
	}
	if p.Text[2].Imm != 0xff {
		t.Fatalf("andi MASK = %v", p.Text[2])
	}
	if p.Text[3].Imm != 16 {
		t.Fatalf("addi SIZE = %v", p.Text[3])
	}
}

func TestEquErrors(t *testing.T) {
	for _, src := range []string{
		".equ", ".equ X", ".equ 9bad, 1", ".equ X, nope",
		".equ X, 1\n.equ X, 2", // duplicate
	} {
		if _, err := Assemble(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestReptExpansion(t *testing.T) {
	p := mustAssemble(t, `
main:
	.rept 3
	addi $t0, $t0, 1
	.endr
	halt
	`)
	if len(p.Text) != 4 {
		t.Fatalf("instructions %d, want 4", len(p.Text))
	}
	for i := 0; i < 3; i++ {
		if p.Text[i].Op != isa.OpADDI {
			t.Fatalf("instr %d = %v", i, p.Text[i])
		}
	}
}

func TestReptNested(t *testing.T) {
	p := mustAssemble(t, `
main:
	.rept 2
	.rept 3
	nop
	.endr
	addi $t0, $t0, 1
	.endr
	halt
	`)
	// 2 * (3 nops + 1 addi) + halt = 9
	if len(p.Text) != 9 {
		t.Fatalf("instructions %d, want 9", len(p.Text))
	}
}

func TestReptData(t *testing.T) {
	p := mustAssemble(t, `
	.data
tab:
	.rept 4
	.word 7
	.endr
	`)
	if len(p.Data) != 16 {
		t.Fatalf("data %d bytes", len(p.Data))
	}
	if p.Data[0] != 7 || p.Data[12] != 7 {
		t.Fatal("repeated words wrong")
	}
}

func TestReptErrors(t *testing.T) {
	for _, src := range []string{
		".rept 2\nnop\n",      // missing endr
		".endr",               // stray endr
		".rept nope\n.endr\n", // bad count
		"\t.REPT 2\nnop\n",    // missing endr, upper case
		"nop\n\t.EndR\n",      // stray endr, mixed case
	} {
		if _, err := Assemble(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
	if _, err := Assemble("nop\n\t.EndR\n"); err == nil || !strings.Contains(err.Error(), ".endr without .rept") {
		t.Errorf("stray .EndR: got %v, want the .rept expander's error", err)
	}
}

// TestMayRept pins the gate in front of expandRept: any spelling of
// .rept or .endr must reach the expander, and sources without either
// must not need it.
func TestMayRept(t *testing.T) {
	for src, want := range map[string]bool{
		"":                      false,
		"nop\n.word 1\n":        false,
		".rep 2\n":              false,
		"x: .rept 2\n":          true,
		"\t.REPT 2\n\tnop\n":    true,
		".eNdR":                 true,
		"lw $t0, 0($gp)\n.rept": true,
		"...rept":               true,
	} {
		if got := mayRept(src); got != want {
			t.Errorf("mayRept(%q) = %v, want %v", src, got, want)
		}
	}
}
