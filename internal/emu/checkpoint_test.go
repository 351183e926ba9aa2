package emu

import (
	"context"
	"errors"
	"slices"
	"testing"

	"dmdp/internal/asm"
	"dmdp/internal/mem"
	"dmdp/internal/trace"
)

// ckProg is a small loop with a rolling store/load working set so that
// checkpoints carry real dirty pages.
const ckProg = `
	li   $t0, 0          # i
	li   $t1, 2000       # iterations
	li   $t2, 0x1000     # buffer base
loop:
	sll  $t3, $t0, 2
	andi $t3, $t3, 0x0ffc
	add  $t4, $t2, $t3
	sw   $t0, 0($t4)
	lw   $t5, 0($t4)
	add  $t6, $t6, $t5
	addi $t0, $t0, 1
	bne  $t0, $t1, loop
	halt
`

func TestSnapshotResumeBitIdentical(t *testing.T) {
	p, err := asm.Assemble(ckProg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !full.HitHalt {
		t.Fatal("program should halt within budget")
	}

	// Re-run, snapshotting mid-execution, then resume and compare the
	// tail against the reference trace.
	const cut = 5_000
	e := New(p)
	init := e.Mem.Clone()
	dirty := map[uint32]bool{}
	for i := 0; i < cut; i++ {
		ent, err := stepOne(e)
		if err != nil {
			t.Fatal(err)
		}
		if ent.IsStore() {
			dirty[ent.Addr&^uint32(mem.PageSize-1)] = true
		}
	}
	ck := e.Snapshot()
	var want []uint32
	for b := range dirty {
		want = append(want, b)
	}
	slices.Sort(want)
	if !slices.Equal(ck.Dirty, want) {
		t.Fatalf("snapshot lists dirty pages %x, the stores wrote %x", ck.Dirty, want)
	}
	if ck.At != cut {
		t.Fatalf("snapshot At = %d, want %d", ck.At, cut)
	}
	if len(ck.Dirty) == 0 {
		t.Fatal("expected dirty pages in the checkpoint")
	}

	r := Resume(p, init, ck)
	if r.InstrCount() != cut {
		t.Fatalf("resumed count = %d", r.InstrCount())
	}
	for i := cut; i < len(full.Entries); i++ {
		got, err := stepOne(r)
		if err != nil {
			t.Fatalf("resumed step %d: %v", i, err)
		}
		want := full.Entries[i]
		// The reference trace has been analyzed; compare the raw fields.
		want.DepStore, want.DepOverlap = 0, 0
		if got != want {
			t.Fatalf("entry %d diverged after resume:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if !r.Halted() {
		t.Fatal("resumed run should halt where the reference did")
	}
}

// TestSnapshotKeepsItsPages: a checkpoint taken at boundary k stays
// byte-equal to a deep copy of memory taken at that moment while the
// emulator runs on and rewrites those pages, and resuming from it after
// that still reproduces the reference run.
func TestSnapshotKeepsItsPages(t *testing.T) {
	p, err := asm.Assemble(ckProg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	e := New(p)
	init := e.Mem.Clone()
	type snap struct {
		ck   *Checkpoint
		deep map[uint32][mem.PageSize]byte
	}
	var snaps []snap
	for k := 1; k <= 4; k++ {
		if err := e.StepN(1_500); err != nil {
			t.Fatal(err)
		}
		deep := map[uint32][mem.PageSize]byte{}
		e.Mem.ForEachPage(func(base uint32, data *[mem.PageSize]byte) { deep[base] = *data })
		snaps = append(snaps, snap{e.Snapshot(), deep})
	}
	if err := e.StepN(1_500); err != nil { // rewrite the buffer once more
		t.Fatal(err)
	}
	for k, s := range snaps {
		if s.ck.Mem.Pages() != len(s.deep) {
			t.Fatalf("boundary %d: snapshot holds %d pages, deep copy %d", k, s.ck.Mem.Pages(), len(s.deep))
		}
		for base, want := range s.deep {
			if got, ok := s.ck.Mem.Page(base); !ok || *got != want {
				t.Fatalf("boundary %d: page %#x changed after the snapshot", k, base)
			}
		}
		r := Resume(p, init, s.ck)
		for i := s.ck.At; i < s.ck.At+2_000; i++ {
			got, err := stepOne(r)
			if err != nil {
				t.Fatal(err)
			}
			want := full.Entries[i]
			want.DepStore, want.DepOverlap = 0, 0
			if got != want {
				t.Fatalf("boundary %d: entry %d diverged after resume", k, i)
			}
		}
	}
}

func TestStepNHaltError(t *testing.T) {
	p, err := asm.Assemble("halt\n")
	if err != nil {
		t.Fatal(err)
	}
	e := New(p)
	if err := e.StepN(1); err != nil {
		t.Fatal(err)
	}
	if err := e.StepN(1); err == nil {
		t.Fatal("StepN past halt must error")
	}
}

func TestRunCtxCancelsMidBuild(t *testing.T) {
	p, err := asm.Assemble(`
	loop:
		addi $t0, $t0, 1
		j    loop
	`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunCtx(ctx, p, 10_000_000)
	var bc *trace.BuildCanceled
	if !errors.As(err, &bc) {
		t.Fatalf("want *trace.BuildCanceled, got %v", err)
	}
	if bc.Entries <= 0 || bc.Entries >= 10_000_000 {
		t.Fatalf("cancel should fire mid-build, got %d entries", bc.Entries)
	}
}
