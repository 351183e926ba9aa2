package emu_test

import (
	"runtime"
	"testing"

	"dmdp/internal/emu"
	"dmdp/internal/trace"
	"dmdp/internal/workload"
)

// TestEmulatorStepDoesNotAllocate guards the emulator's steady state:
// once a proxy's working set is paged in, stepping one instruction into
// a caller-owned entry allocates nothing. The test lives in an external
// package because workload imports emu.
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
		var ent trace.Entry
		var stepErr error
		allocs := testing.AllocsPerRun(10_000, func() {
			if err := e.StepInto(&ent); err != nil && stepErr == nil {
				stepErr = err
			}
		})
		if stepErr != nil {
			t.Fatalf("%s: %v", name, stepErr)
		}
		if allocs != 0 {
			t.Errorf("%s: StepInto allocates %.2f times per instruction, want 0", name, allocs)
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
