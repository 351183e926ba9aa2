package emu

import (
	"testing"

	"dmdp/internal/asm"
	"dmdp/internal/isa"
	"dmdp/internal/trace"
)

// stepOne executes one instruction and returns its entry.
func stepOne(e *Emulator) (trace.Entry, error) {
	var one [1]trace.Entry
	_, err := e.Step(one[:])
	return one[0], err
}

func run(t *testing.T, src string, max int64) *Emulator {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	e := New(p)
	for i := int64(0); i < max && !e.Halted(); i++ {
		if _, err := stepOne(e); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return e
}

func TestArithmetic(t *testing.T) {
	e := run(t, `
		li $t0, 7
		li $t1, 3
		add $t2, $t0, $t1    # 10
		sub $t3, $t0, $t1    # 4
		mul $t4, $t0, $t1    # 21
		div $t5, $t0, $t1    # 2
		rem $t6, $t0, $t1    # 1
		slt $t7, $t1, $t0    # 1
		halt
	`, 100)
	want := map[isa.Reg]uint32{
		isa.T2: 10, isa.T3: 4, isa.T4: 21, isa.T5: 2, isa.T6: 1, isa.T7: 1,
	}
	for r, v := range want {
		if e.Regs[r] != v {
			t.Errorf("%s = %d, want %d", r, e.Regs[r], v)
		}
	}
}

func TestNegativeAndLogic(t *testing.T) {
	e := run(t, `
		li $t0, -8
		sra $t1, $t0, 2      # -2
		srl $t2, $t0, 28     # 0xf
		li $t3, 0x0ff0
		andi $t4, $t3, 0xff  # 0xf0
		ori $t5, $t3, 0xf    # 0x0fff
		xori $t6, $t3, 0xff0 # 0
		nor $t7, $zero, $zero # 0xffffffff
		halt
	`, 100)
	if int32(e.Regs[isa.T1]) != -2 {
		t.Errorf("sra = %d", int32(e.Regs[isa.T1]))
	}
	if e.Regs[isa.T2] != 0xf || e.Regs[isa.T4] != 0xf0 ||
		e.Regs[isa.T5] != 0xfff || e.Regs[isa.T6] != 0 ||
		e.Regs[isa.T7] != 0xffffffff {
		t.Error("logic ops wrong")
	}
}

func TestDivideByZeroIsZero(t *testing.T) {
	e := run(t, `
		li $t0, 9
		div $t1, $t0, $zero
		rem $t2, $t0, $zero
		halt
	`, 10)
	if e.Regs[isa.T1] != 0 || e.Regs[isa.T2] != 0 {
		t.Error("div/rem by zero must be 0")
	}
}

func TestLoop(t *testing.T) {
	e := run(t, `
		li $t0, 10
		li $t1, 0
	loop:
		add $t1, $t1, $t0
		addi $t0, $t0, -1
		bnez $t0, loop
		halt
	`, 1000)
	if e.Regs[isa.T1] != 55 {
		t.Errorf("sum = %d, want 55", e.Regs[isa.T1])
	}
	if !e.Halted() {
		t.Error("did not halt")
	}
}

func TestMemoryOps(t *testing.T) {
	e := run(t, `
		.data
	buf:
		.space 16
	val:
		.word 0x80018002
		.text
	main:
		la $t0, buf
		li $t1, 0x11223344
		sw $t1, 0($t0)
		lw $t2, 0($t0)        # 0x11223344
		lhu $t3, 0($t0)       # 0x3344
		lhu $t4, 2($t0)       # 0x1122
		lb $t5, 3($t0)        # 0x11
		sb $zero, 0($t0)
		lw $t6, 0($t0)        # 0x11223300
		la $t7, val
		lh $t8, 0($t7)        # sign-extended 0x8002
		lbu $t9, 1($t7)       # 0x80
		halt
	`, 100)
	if e.Regs[isa.T2] != 0x11223344 || e.Regs[isa.T3] != 0x3344 ||
		e.Regs[isa.T4] != 0x1122 || e.Regs[isa.T5] != 0x11 ||
		e.Regs[isa.T6] != 0x11223300 {
		t.Errorf("word/half/byte ops wrong: %x %x %x %x %x",
			e.Regs[isa.T2], e.Regs[isa.T3], e.Regs[isa.T4], e.Regs[isa.T5], e.Regs[isa.T6])
	}
	if e.Regs[isa.T8] != 0xffff8002 {
		t.Errorf("lh sign extension = %x", e.Regs[isa.T8])
	}
	if e.Regs[isa.T9] != 0x80 {
		t.Errorf("lbu = %x", e.Regs[isa.T9])
	}
}

func TestCallReturn(t *testing.T) {
	e := run(t, `
	main:
		li $a0, 5
		jal double
		move $t0, $v0
		jal double
		move $t1, $v0
		halt
	double:
		add $v0, $a0, $a0
		move $a0, $v0
		jr $ra
	`, 100)
	if e.Regs[isa.T0] != 10 || e.Regs[isa.T1] != 20 {
		t.Errorf("call results %d %d", e.Regs[isa.T0], e.Regs[isa.T1])
	}
}

func TestJalr(t *testing.T) {
	e := run(t, `
	main:
		la $t0, fn
		jalr $t9, $t0
		halt
	fn:
		li $v0, 42
		jr $t9
	`, 100)
	if e.Regs[isa.V0] != 42 {
		t.Errorf("jalr result %d", e.Regs[isa.V0])
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	e := run(t, `
		li $t0, 5
		add $zero, $t0, $t0
		addi $zero, $t0, 1
		lui $zero, 0xffff
		move $t1, $zero
		halt
	`, 100)
	if e.Regs[isa.Zero] != 0 || e.Regs[isa.T1] != 0 {
		t.Error("$zero was modified")
	}
}

func TestUnalignedAccessFaults(t *testing.T) {
	p, err := asm.Assemble(`
		li $t0, 0x10000001
		lw $t1, 0($t0)
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	e := New(p)
	// li expands to lui+ori; the third step is the lw.
	for i := 0; i < 2; i++ {
		if _, err := stepOne(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stepOne(e); err == nil {
		t.Fatal("expected unaligned fault")
	}
}

func TestPCOutsideTextFaults(t *testing.T) {
	p, err := asm.Assemble("nop") // falls off the end
	if err != nil {
		t.Fatal(err)
	}
	e := New(p)
	if _, err := stepOne(e); err != nil {
		t.Fatal(err)
	}
	if _, err := stepOne(e); err == nil {
		t.Fatal("expected PC fault")
	}
}

func TestStepAfterHaltFails(t *testing.T) {
	p, _ := asm.Assemble("halt")
	e := New(p)
	if _, err := stepOne(e); err != nil {
		t.Fatal(err)
	}
	if _, err := stepOne(e); err == nil {
		t.Fatal("expected error stepping after halt")
	}
}

func TestBranchVariants(t *testing.T) {
	e := run(t, `
		li $t0, -1
		li $t1, 1
		li $t9, 0
		bltz $t0, a
		ori $t9, $t9, 1   # skipped
	a:	bgez $t1, b
		ori $t9, $t9, 2   # skipped
	b:	blez $zero, c
		ori $t9, $t9, 4   # skipped
	c:	bgtz $t1, d
		ori $t9, $t9, 8   # skipped
	d:	bltz $t1, e
		ori $t9, $t9, 16  # executed
	e:	halt
	`, 100)
	if e.Regs[isa.T9] != 16 {
		t.Errorf("branch mask = %d, want 16", e.Regs[isa.T9])
	}
}

func TestSilentStoreFlag(t *testing.T) {
	p, err := asm.Assemble(`
		.data
	x:	.word 7
		.text
	main:
		la $t0, x
		li $t1, 7
		sw $t1, 0($t0)   # silent: writes the same 7
		li $t2, 8
		sw $t2, 0($t0)   # not silent
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	var silents []bool
	for _, en := range tr.Entries {
		if en.IsStore() {
			silents = append(silents, en.Silent())
		}
	}
	if len(silents) != 2 || !silents[0] || silents[1] {
		t.Errorf("silent flags = %v", silents)
	}
}

func TestRunCollectsTrace(t *testing.T) {
	p, err := asm.Assemble(`
		li $t0, 3
	loop:
		addi $t0, $t0, -1
		bnez $t0, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.HitHalt {
		t.Error("should have halted")
	}
	// li + 3*(addi+bnez) + halt = 8 entries
	if len(tr.Entries) != 8 {
		t.Errorf("trace length %d, want 8", len(tr.Entries))
	}
	// Branch outcomes: taken, taken, not taken.
	var outcomes []bool
	for _, en := range tr.Entries {
		if en.Op.IsBranch() {
			outcomes = append(outcomes, en.Taken())
		}
	}
	want := []bool{true, true, false}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Errorf("branch %d taken=%v want %v", i, outcomes[i], want[i])
		}
	}
}

func TestInstrBudgetStopsRun(t *testing.T) {
	p, err := asm.Assemble(`
	loop:
		b loop
	`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(p, 50)
	if err != nil {
		t.Fatal(err)
	}
	if tr.HitHalt || len(tr.Entries) != 50 {
		t.Errorf("budget run: halt=%v len=%d", tr.HitHalt, len(tr.Entries))
	}
}

func TestGPAndSPInitialized(t *testing.T) {
	p, _ := asm.Assemble("halt")
	e := New(p)
	if e.Regs[isa.SP] != StackTop {
		t.Error("sp not initialized")
	}
	if e.Regs[isa.GP] != p.DataBase {
		t.Error("gp not initialized")
	}
}

func TestMULHAndUnsignedCompares(t *testing.T) {
	e := run(t, `
		li $t0, 0x40000000
		li $t1, 4
		mulh $t2, $t0, $t1     # (2^30 * 4) >> 32 = 1
		li $t3, -1
		sltu $t4, $t0, $t3     # unsigned: 0x40000000 < 0xffffffff = 1
		slt  $t5, $t3, $t0     # signed: -1 < 2^30 = 1
		sltiu $t6, $t3, 5      # unsigned 0xffffffff < 5 = 0
		halt
	`, 100)
	if e.Regs[isa.T2] != 1 {
		t.Errorf("mulh = %d", e.Regs[isa.T2])
	}
	if e.Regs[isa.T4] != 1 || e.Regs[isa.T5] != 1 || e.Regs[isa.T6] != 0 {
		t.Errorf("compares: %d %d %d", e.Regs[isa.T4], e.Regs[isa.T5], e.Regs[isa.T6])
	}
}

func TestBranchTraceTargets(t *testing.T) {
	p, err := asm.Assemble(`
	main:
		beq $zero, $zero, skip
		nop
	skip:
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Entries[0].Taken() {
		t.Fatal("beq $zero,$zero must be taken")
	}
	if tr.Entries[0].Target != p.Symbols["skip"] {
		t.Fatalf("target 0x%x, want skip 0x%x", tr.Entries[0].Target, p.Symbols["skip"])
	}
	// The next executed entry is at the target.
	if tr.Entries[1].PC != p.Symbols["skip"] {
		t.Fatalf("fell through to 0x%x", tr.Entries[1].PC)
	}
}

func TestShiftVariableOps(t *testing.T) {
	// Variable shifts take (rd, rs=shift amount, rt=value): rd = rt
	// shifted by rs&31.
	e := run(t, `
		li $t0, 0xf0
		li $t1, 4
		sllv $t2, $t1, $t0    # 0xf0 << 4  = 0xf00
		srlv $t3, $t1, $t2    # 0xf00 >> 4 = 0xf0
		li $t4, -16
		li $t6, 8
		srav $t5, $t6, $t4    # -16 >> 8 (arith) = -1
		halt
	`, 100)
	if e.Regs[isa.T2] != 0xf00 || e.Regs[isa.T3] != 0xf0 {
		t.Errorf("sllv/srlv: %x %x", e.Regs[isa.T2], e.Regs[isa.T3])
	}
	if int32(e.Regs[isa.T5]) != -1 {
		t.Errorf("srav = %d", int32(e.Regs[isa.T5]))
	}
}
