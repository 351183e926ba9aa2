package core

import (
	"runtime"
	"testing"

	"dmdp/internal/config"
	"dmdp/internal/workload"
)

// bigOCPattern is the occasionally-colliding pointer sweep of ocPattern
// scaled up so the simulation runs for hundreds of thousands of cycles:
// the allocation guard must be able to warm up and then measure thousands
// of steady-state cycles without the trace running out.
const bigOCPattern = `
	.data
ptrs:
	.word x0, x1, x0, x0, x1, x0, x1, x1
x0:
	.word 0
x1:
	.word 0
	.text
main:
	li $t0, 20000      # outer iterations
outer:
	la $t1, ptrs
	li $t2, 8          # 8 pointers per sweep
inner:
	lw $t3, 0($t1)     # ptr = a[i]
	lw $t4, 0($t3)     # x[ptr]
	addi $t4, $t4, 1
	sw $t4, 0($t3)     # x[ptr]++
	addi $t1, $t1, 4
	addi $t2, $t2, -1
	bnez $t2, inner
	addi $t0, $t0, -1
	bnez $t0, outer
	halt
`

// TestCycleLoopDoesNotAllocate is the allocation-regression guard for the
// tentpole of the perf overhaul: after warmup, one simulated cycle must
// perform zero heap allocations, under every model. The workload mixes
// ALU ops, branches, loads, stores, cloaking, predication, retire-time
// verification and the occasional dependence-exception flush, so every
// stage of the steady loop is exercised.
func TestCycleLoopDoesNotAllocate(t *testing.T) {
	tr := traceOf(t, bigOCPattern, 400_000)
	for _, m := range allModels {
		cfg := config.Default(m)
		c, err := New(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		window := cfg.Watchdog.NoRetireWindow
		if window <= 0 {
			window = config.DefaultNoRetireWindow
		}
		// Warm up: fill the pools, grow the scratch slices and heaps to
		// their steady capacity.
		for i := 0; i < 30_000 && !c.done; i++ {
			c.step(window, 0)
		}
		if c.done {
			t.Fatalf("%s: trace too short: simulation finished during warmup", m)
		}
		// One measured run of 5,000 cycles, so the count is the total:
		// averaging per cycle would truncate a leak of less than one
		// object per cycle (one per committed store, say) to zero.
		total := testing.AllocsPerRun(1, func() {
			for i := 0; i < 5_000; i++ {
				c.step(window, 0)
			}
		})
		if c.done || c.simErr != nil {
			t.Fatalf("%s: simulation ended during measurement (err=%v)", m, c.simErr)
		}
		if total != 0 {
			t.Errorf("%s: 5,000 steady-state cycles allocate %.0f objects, want 0", m, total)
		}
	}
}

// TestNewAllocationBound bounds what core.New allocates on lbm at 20k
// instructions, whose initial image is a 6 MiB data segment: the core
// shares the trace's pages copy-on-write, so what remains is the cache,
// predictor and window state. A page-by-page copy of the image would
// allocate about 7.3 MB per call, paid again by every short run (the
// suite's 20k cells, sampled intervals).
func TestNewAllocationBound(t *testing.T) {
	s, ok := workload.Get("lbm")
	if !ok {
		t.Fatal("lbm proxy missing")
	}
	tr, err := s.BuildTrace(20_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default(config.DMDP)
	const runs, limit = 5, 1_500_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := New(cfg, tr); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perNew := (after.TotalAlloc - before.TotalAlloc) / runs
	if perNew > limit {
		t.Fatalf("core.New on lbm@20k allocates %d bytes, limit %d", perNew, limit)
	}
	t.Logf("core.New on lbm@20k: %d bytes", perNew)
}
