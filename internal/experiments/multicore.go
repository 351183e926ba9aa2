package experiments

import (
	"context"
	"fmt"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/stats"
	"dmdp/internal/trace"
)

// mcCoreCounts are the machine sizes the multicore table sweeps.
var mcCoreCounts = []int{1, 2, 4}

// mcBenchCap bounds the multicore table to the first few proxies: each
// cell is an uncached N-core machine run (machine results deliberately
// stay outside the single-core artifact store), so the table pays
// cores × benches full simulations every time.
const mcBenchCap = 6

func mcBenchmarks(r *Runner) []string {
	b := r.Benchmarks()
	if len(b) > mcBenchCap {
		b = b[:mcBenchCap]
	}
	return b
}

// mcRun executes one N-core machine under ctx with the workload trace
// replicated on every core: a homogeneous-rate contention study over the
// shared L2 (timing only — the semantic coupling layer is for litmus
// programs whose addresses are independent of shared data).
func mcRun(ctx context.Context, tr *trace.Trace, model config.Model, n int) (*core.MachineStats, error) {
	cfg := core.DefaultMachineConfig(n, model, core.MemTSO)
	cfg.Semantics = false
	// Litmus-grade interleaving jitter is noise for an IPC study: run
	// deterministic lockstep (start skew only).
	cfg.StallProb = 0
	traces := make([]*trace.Trace, n)
	for i := range traces {
		traces[i] = tr
	}
	m, err := core.NewMachine(cfg, traces)
	if err != nil {
		return nil, err
	}
	return m.RunContext(ctx)
}

// runMachine runs mcRun for one proxy under the runner's context. As Run
// does for single-core runs, a failed trace build or machine is recorded
// (see Failures) under a label naming the machine, such as "dmdp-2c",
// and the result is nil so the caller leaves its row out.
func (r *Runner) runMachine(name string, model config.Model, n int) *core.MachineStats {
	tr, err := r.Trace(name)
	var st *core.MachineStats
	if err == nil {
		st, err = mcRun(r.ctx(), tr, model, n)
	}
	if err != nil {
		r.recordFailure(Failure{Bench: name, Label: fmt.Sprintf("%s-%dc", model, n),
			Err: err, Diagnostic: diagnosticFor(err)})
	}
	return st
}

// McIPC renders the multicore scaling table: aggregate IPC of 1, 2 and
// 4 identical cores over a shared L2, baseline vs DMDP. Replicating the
// same address stream is the worst case for coherence (every store
// invalidates every remote L1 and stamps its T-SSBF), so per-core IPC
// degrades with the core count while DMDP's margin over the baseline
// persists. The machines run on the runner's worker pool, each into its
// own slot; a proxy whose trace or any machine failed is left out, and
// the failure is recorded.
func McIPC(r *Runner) (string, error) {
	t := stats.NewTable("Multicore: aggregate IPC over a shared L2 (same trace per core)",
		"bench", "base 1c", "base 2c", "base 4c", "dmdp 1c", "dmdp 2c", "dmdp 4c", "dmdp stamps 4c")
	benches := mcBenchmarks(r)
	models := []config.Model{config.Baseline, config.DMDP}
	perBench := len(models) * len(mcCoreCounts)
	cells := make([]*core.MachineStats, len(benches)*perBench)
	r.forEachPooled(r.ctx(), len(cells), func(i int) {
		j := i % perBench
		cells[i] = r.runMachine(benches[i/perBench], models[j/len(mcCoreCounts)], mcCoreCounts[j%len(mcCoreCounts)])
	})
	for b, name := range benches {
		row := []any{name}
		for _, st := range cells[b*perBench : (b+1)*perBench] {
			if st == nil {
				row = nil
				break
			}
			row = append(row, st.IPC())
		}
		if row == nil {
			continue
		}
		// The row's last machine is the 4-core DMDP one.
		row = append(row, fmt.Sprintf("%d", cells[(b+1)*perBench-1].RemoteStamps))
		t.AddF(3, row...)
	}
	out := t.String()
	out += "aggregate IPC; remote T-SSBF sentinel stamps shown for the 4-core DMDP machine\n"
	out += "(replicated traces share read misses in the L2 — superlinear baseline scaling —\n" +
		" while every store invalidates all remote L1s and stamps their T-SSBFs)\n"
	return out, nil
}
