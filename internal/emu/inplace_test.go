package emu_test

import (
	"context"
	"fmt"
	"testing"

	"dmdp/internal/asm"
	"dmdp/internal/emu"
	"dmdp/internal/isa"
	"dmdp/internal/progen"
	"dmdp/internal/trace"
	"dmdp/internal/workload"
)

type namedProgram struct {
	name string
	p    *isa.Program
}

// inPlacePrograms returns the programs the in-place builder tests run:
// all 21 proxies and three progen presets at three seeds each.
func inPlacePrograms(t *testing.T) []namedProgram {
	t.Helper()
	var progs []namedProgram
	for _, spec := range workload.All() {
		p, err := spec.Program()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, namedProgram{spec.Name, p})
	}
	for _, preset := range progen.Presets()[:3] {
		for seed := uint64(1); seed <= 3; seed++ {
			p, err := asm.Assemble(progen.Generate(seed, preset.Knobs))
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, namedProgram{fmt.Sprintf("%s/%d", preset.Name, seed), p})
		}
	}
	return progs
}

// raw strips the fields Analyze fills, leaving what the emulator wrote.
func raw(e trace.Entry) trace.Entry {
	e.DepStore, e.DepOverlap = 0, 0
	return e
}

// sameEntries reports the first entry where got differs from want[:len(got)]
// in any field the emulator writes.
func sameEntries(got, want []trace.Entry) error {
	if len(got) > len(want) {
		return fmt.Errorf("%d entries, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != raw(want[i]) {
			return fmt.Errorf("entry %d: got %+v, want %+v", i, got[i], raw(want[i]))
		}
	}
	return nil
}

// TestInPlaceBuildersAgree checks that every way of stepping the
// emulator into caller-owned slots yields the same entries: the
// materialized trace (CollectCtx), the chunked stream (ForEachChunk) at
// chunk lengths that divide the budget unevenly, and a run resumed from a
// mid-trace Snapshot, fast-forwarded with StepN, then collected.
func TestInPlaceBuildersAgree(t *testing.T) {
	const budget = 20_000
	for _, np := range inPlacePrograms(t) {
		name, p := np.name, np.p
		ref, err := emu.RunCtx(context.Background(), p, budget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, chunkLen := range []int{1, 63, 4096} {
			var got []trace.Entry
			total, hitHalt, err := trace.ForEachChunk(context.Background(), emu.New(p), budget, chunkLen, nil,
				func(start int64, chunk []trace.Entry, _ struct{}) error {
					if start != int64(len(got)) {
						return fmt.Errorf("chunk starts at %d after %d entries", start, len(got))
					}
					got = append(got, chunk...)
					return nil
				})
			if err != nil {
				t.Fatalf("%s chunk %d: %v", name, chunkLen, err)
			}
			if total != int64(len(ref.Entries)) || len(got) != len(ref.Entries) || hitHalt != ref.HitHalt {
				t.Fatalf("%s chunk %d: %d entries (%d delivered), halt %v; reference %d, halt %v",
					name, chunkLen, total, len(got), hitHalt, len(ref.Entries), ref.HitHalt)
			}
			if err := sameEntries(got, ref.Entries); err != nil {
				t.Fatalf("%s chunk %d: %v", name, chunkLen, err)
			}
		}

		// Snapshot a third of the way in, resume, fast-forward another
		// sixth with StepN, and collect the rest from there.
		cut := int64(len(ref.Entries)) / 3
		e := emu.New(p)
		init := e.Mem.Clone()
		if err := e.StepN(cut); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := emu.Resume(p, init, e.Snapshot())
		skip := int64(len(ref.Entries)) / 6
		if err := r.StepN(skip); err != nil {
			t.Fatalf("%s: StepN: %v", name, err)
		}
		from := cut + skip
		tail, err := trace.Collect(r, int64(len(ref.Entries))-from, p, r.Mem.Clone())
		if err != nil {
			t.Fatalf("%s: resumed collect: %v", name, err)
		}
		if len(tail.Entries) != len(ref.Entries)-int(from) {
			t.Fatalf("%s: resumed run collected %d entries, want %d", name, len(tail.Entries), len(ref.Entries)-int(from))
		}
		got := make([]trace.Entry, len(tail.Entries))
		for i := range tail.Entries {
			got[i] = raw(tail.Entries[i])
		}
		if err := sameEntries(got, ref.Entries[from:]); err != nil {
			t.Fatalf("%s: resumed at %d: %v", name, from, err)
		}
	}
}

// faultProg stores 1,500 times, then loads from an unaligned address.
const faultProg = `
	li   $t0, 1500
	la   $t1, buf
loop:
	sw   $t0, 0($t1)
	addi $t0, $t0, -1
	bnez $t0, loop
	lw   $t2, 2($t1)
	halt
	.data
buf:
	.space 16
`

// TestFaultLeavesOnlyEarlierEntries checks that a step that faults on an
// unaligned access writes nothing: the emulator and the slot it was
// handed are unchanged, CollectCtx returns no trace, and ForEachChunk
// counts only the entries before the fault and delivers those of the
// chunks completed before it.
func TestFaultLeavesOnlyEarlierEntries(t *testing.T) {
	p, err := asm.Assemble(faultProg)
	if err != nil {
		t.Fatal(err)
	}
	// The reference: step one instruction at a time until the fault.
	var ref []trace.Entry
	e := emu.New(p)
	var faultErr error
	for faultErr == nil {
		var one [1]trace.Entry
		if _, faultErr = e.Step(one[:]); faultErr == nil {
			ref = append(ref, one[0])
		}
	}
	faultAt := len(ref)
	if faultAt < 4096 || faultAt%63 == 0 {
		t.Fatalf("fault at entry %d: the program must fault mid-chunk past the first 4096-entry chunk", faultAt)
	}
	faultPC := e.PC
	if in, _ := p.InstrAt(faultPC); in.Op != isa.OpLW {
		t.Fatalf("fault at pc 0x%08x (%v), want the unaligned lw", faultPC, in)
	}

	// A failed step changes nothing, the slot included.
	regs, count := e.Regs, e.InstrCount()
	sentinel := trace.Entry{PC: 0xdead, Value: 7}
	slot := []trace.Entry{sentinel}
	if n, err := e.Step(slot); err == nil || n != 0 {
		t.Fatalf("stepping the unaligned lw again wrote %d entries, error %v", n, err)
	}
	if slot[0] != sentinel || e.PC != faultPC || e.Regs != regs || e.InstrCount() != count {
		t.Fatalf("failed step wrote state: slot %+v, pc 0x%08x, count %d", slot[0], e.PC, e.InstrCount())
	}

	// A batch that reaches the fault writes the entries before it and
	// nothing from the faulting slot on.
	const lead = 5
	b := emu.New(p)
	if err := b.StepN(int64(faultAt - lead)); err != nil {
		t.Fatal(err)
	}
	batch := []trace.Entry{sentinel, sentinel, sentinel, sentinel, sentinel, sentinel, sentinel, sentinel}
	n, err := b.Step(batch)
	if n != lead || err == nil || err.Error() != faultErr.Error() {
		t.Fatalf("batch across the fault: %d entries, error %v; want %d and %v", n, err, lead, faultErr)
	}
	if err := sameEntries(batch[:n], ref[faultAt-lead:]); err != nil {
		t.Fatalf("batch across the fault: %v", err)
	}
	for i := n; i < len(batch); i++ {
		if batch[i] != sentinel {
			t.Fatalf("batch across the fault wrote slot %d: %+v", i, batch[i])
		}
	}
	if b.PC != faultPC || b.InstrCount() != int64(faultAt) {
		t.Fatalf("batch across the fault: pc 0x%08x after %d instructions, want 0x%08x after %d", b.PC, b.InstrCount(), faultPC, faultAt)
	}

	wantErr := fmt.Sprintf("trace: at entry %d: %v", faultAt, faultErr)
	tr, err := trace.Collect(emu.New(p), 10_000, p, nil)
	if tr != nil || err == nil || err.Error() != wantErr {
		t.Fatalf("Collect: trace %v, error %v; want no trace and %q", tr != nil, err, wantErr)
	}

	for _, chunkLen := range []int{1, 63, 4096} {
		var got []trace.Entry
		total, _, err := trace.ForEachChunk(context.Background(), emu.New(p), 10_000, chunkLen, nil,
			func(_ int64, chunk []trace.Entry, _ struct{}) error {
				got = append(got, chunk...)
				return nil
			})
		if err == nil || err.Error() != wantErr {
			t.Fatalf("chunk %d: error %v, want %q", chunkLen, err, wantErr)
		}
		if total != int64(faultAt) {
			t.Fatalf("chunk %d: %d entries executed, want %d", chunkLen, total, faultAt)
		}
		delivered := faultAt / chunkLen * chunkLen
		if len(got) != delivered {
			t.Fatalf("chunk %d: %d entries delivered, want the %d in full chunks", chunkLen, len(got), delivered)
		}
		if err := sameEntries(got, ref); err != nil {
			t.Fatalf("chunk %d: %v", chunkLen, err)
		}
	}
}
