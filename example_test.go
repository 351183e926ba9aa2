package dmdp_test

import (
	"fmt"
	"log"

	"dmdp"
)

// The simplest use: run a proxy benchmark under DMDP and read the
// headline statistics.
func ExampleRunWorkload() {
	st, err := dmdp.RunWorkload(dmdp.DefaultConfig(dmdp.DMDP), "perl", 20_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(st.Instructions, "instructions retired")
	// Output: 20000 instructions retired
}

// Custom programs run through the same pipeline: assemble, emulate,
// simulate.
func ExampleRunSource() {
	src := `
	li  $t0, 64
	li  $t1, 0
loop:
	add $t1, $t1, $t0
	addi $t0, $t0, -1
	bnez $t0, loop
	halt
`
	st, err := dmdp.RunSource(dmdp.DefaultConfig(dmdp.Baseline), src, 10_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(st.Instructions, "instructions,", st.DepMispredicts, "dependence mispredictions")
	// Output: 195 instructions, 0 dependence mispredictions
}

// Comparing mechanisms on one trace: build the trace once, run each
// model over it.
func ExampleRun() {
	tr, err := dmdp.BuildWorkloadTrace("gromacs", 20_000)
	if err != nil {
		log.Fatal(err)
	}
	nosq, err := dmdp.Run(dmdp.DefaultConfig(dmdp.NoSQ), tr)
	if err != nil {
		log.Fatal(err)
	}
	dm, err := dmdp.Run(dmdp.DefaultConfig(dmdp.DMDP), tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dmdp beats nosq: %v\n", dm.IPC() > nosq.IPC())
	// Output: dmdp beats nosq: true
}

// Machine variants derive from the default configuration.
func ExampleConfig() {
	cfg := dmdp.DefaultConfig(dmdp.DMDP).
		WithStoreBuffer(64).
		WithConsistency(dmdp.RMO).
		WithPrefetch(true)
	fmt.Println(cfg.StoreBufferSize, cfg.Consistency)
	// Output: 64 rmo
}

// SimPoint-style sampling (paper §V): simulate weighted intervals
// instead of the whole trace.
func ExampleRunSampled() {
	tr, err := dmdp.BuildWorkloadTrace("sjeng", 30_000)
	if err != nil {
		log.Fatal(err)
	}
	res, err := dmdp.RunSampled(dmdp.DefaultConfig(dmdp.DMDP), tr, "3x5000")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(res.Results), "intervals,", res.TotalInstructions, "instructions")
	// Output: 3 intervals, 15000 instructions
}

// Energy accounting for a finished run.
func ExampleEnergy() {
	st, err := dmdp.RunWorkload(dmdp.DefaultConfig(dmdp.NoSQ), "perl", 10_000)
	if err != nil {
		log.Fatal(err)
	}
	e := dmdp.Energy(st)
	fmt.Println(e.TotalPJ > 0, e.EDP > 0, len(e.Breakdown) > 0)
	// Output: true true true
}
