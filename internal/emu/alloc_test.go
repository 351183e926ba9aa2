package emu_test

import (
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
