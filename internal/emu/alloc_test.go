package emu_test

import (
	"runtime"
	"testing"

	"dmdp/internal/asm"
	"dmdp/internal/emu"
	"dmdp/internal/trace"
	"dmdp/internal/workload"
)

// TestEmulatorStepDoesNotAllocate guards the emulator's steady state:
// once a proxy's working set is paged in, stepping a batch of
// instructions into caller-owned entries allocates nothing. The test
// lives in an external package because workload imports emu.
func TestEmulatorStepDoesNotAllocate(t *testing.T) {
	for _, name := range []string{"gcc", "lbm", "mcf"} {
		spec, ok := workload.Get(name)
		if !ok {
			t.Fatalf("%s proxy missing", name)
		}
		p, err := spec.Program()
		if err != nil {
			t.Fatal(err)
		}
		e := emu.New(p)
		if err := e.StepN(200_000); err != nil {
			t.Fatalf("%s warm-up: %v", name, err)
		}
		var buf [8]trace.Entry
		var stepErr error
		allocs := testing.AllocsPerRun(1_250, func() {
			if _, err := e.Step(buf[:]); err != nil && stepErr == nil {
				stepErr = err
			}
		})
		if stepErr != nil {
			t.Fatalf("%s: %v", name, stepErr)
		}
		if allocs != 0 {
			t.Errorf("%s: Step allocates %.2f times per %d instructions, want 0", name, allocs, len(buf))
		}
	}
}

// TestSnapshotCopiesNoPage bounds what a boundary snapshot of lbm, whose
// image holds its 6 MiB data segment, allocates: the copy-on-write clone's
// page table, never a page. The streamed profiling pass takes one at
// every chunk boundary.
func TestSnapshotCopiesNoPage(t *testing.T) {
	spec, ok := workload.Get("lbm")
	if !ok {
		t.Fatal("lbm proxy missing")
	}
	p, err := spec.Program()
	if err != nil {
		t.Fatal(err)
	}
	e := emu.New(p)
	if err := e.StepN(200_000); err != nil {
		t.Fatal(err)
	}
	pages := e.Mem.Pages()
	if pages < 1000 {
		t.Fatalf("lbm's image has %d pages; the bound below assumes its full data segment", pages)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		snapSink = e.Snapshot()
	}
	runtime.ReadMemStats(&after)
	perSnap := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(pages) * 64; perSnap > limit {
		t.Fatalf("Snapshot of %d pages allocated %d bytes (limit %d): it copies pages", pages, perSnap, limit)
	}
	t.Logf("Snapshot of %d pages: %d bytes", pages, perSnap)
}

var snapSink *emu.Checkpoint

// TestHaltingProgramKeepsNoBudget: the trace of a program that halts
// at once costs the same at any budget. The build starts with room for
// 1<<20 entries (24 MiB) and grows only when the program runs past
// them, so a two-instruction program at the daemon's 100M-instruction
// cap neither allocates nor keeps the 2.2 GiB its budget would take.
func TestHaltingProgramKeepsNoBudget(t *testing.T) {
	p, err := asm.Assemble("nop\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := emu.Run(p, 100_000_000)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 32<<20 {
		t.Errorf("building the trace allocated %.1f MiB, want under 32", float64(alloc)/(1<<20))
	}
	if len(tr.Entries) != 2 || !tr.HitHalt || cap(tr.Entries) > 1<<20 {
		t.Errorf("trace of %d entries (halt %v) keeps a slice of %d", len(tr.Entries), tr.HitHalt, cap(tr.Entries))
	}
}
