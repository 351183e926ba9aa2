package trace_test

import (
	"testing"

	"dmdp/internal/asm"
	"dmdp/internal/emu"
	"dmdp/internal/trace"
	"dmdp/internal/workload"
)

// TestLoadValuesReconstructible cross-checks the emulator and the
// dependence analysis: replaying every store that precedes a load onto
// the initial memory image must reproduce exactly the value the load
// observed. This is the property the timing core's committed-image
// mechanism relies on.
func TestLoadValuesReconstructible(t *testing.T) {
	for _, bench := range []string{"perl", "bzip2", "hmmer"} {
		s, _ := workload.Get(bench)
		tr, err := s.BuildTrace(15_000)
		if err != nil {
			t.Fatal(err)
		}
		img := tr.InitMem.Clone()
		for i := range tr.Entries {
			e := &tr.Entries[i]
			switch {
			case e.IsStore():
				img.Write(e.Addr, uint32(e.Size), e.Value)
			case e.IsLoad():
				got := trace.ExtendLoad(e.Op, img.Read(e.Addr, uint32(e.Size)))
				if got != e.Value {
					t.Fatalf("%s: load at entry %d (pc 0x%x): replayed 0x%x, trace says 0x%x",
						bench, i, e.PC, got, e.Value)
				}
			}
		}
	}
}

// TestDepStoreValueConsistency: when a load's youngest colliding store
// fully covers it, forwarding that store's value must reproduce the
// load's architectural value (the cloaking correctness condition).
func TestDepStoreValueConsistency(t *testing.T) {
	src := `
	.data
buf:	.space 64
	.text
main:
	la $t9, buf
	li $t0, 500
loop:
	andi $t1, $t0, 28
	add  $t2, $t9, $t1
	sw   $t0, 0($t2)
	lw   $t3, 0($t2)     # always fully covered by the sw above
	sh   $t0, 32($t9)
	lhu  $t4, 32($t9)    # halfword forwarding
	addi $t0, $t0, -1
	bnez $t0, loop
	halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emu.Run(p, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := range tr.Entries {
		e := &tr.Entries[i]
		if !e.IsLoad() || e.DepStore == 0 || e.DepOverlap != trace.OverlapFull {
			continue
		}
		sIdx := tr.EntryBySeq(int64(e.DepStore))
		if sIdx < 0 {
			t.Fatalf("entry %d: colliding store seq %d not found", i, e.DepStore)
		}
		if got := trace.ForwardValue(&tr.Entries[sIdx], e); got != e.Value {
			t.Fatalf("entry %d: forwarded 0x%x, architectural 0x%x", i, got, e.Value)
		}
		checked++
	}
	if checked < 500 {
		t.Fatalf("only %d fully-covered loads checked", checked)
	}
}
