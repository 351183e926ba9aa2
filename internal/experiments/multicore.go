package experiments

import (
	"context"
	"fmt"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/stats"
	"dmdp/internal/trace"
)

// mcRuns are the multicore table's machines, in column order.
var mcRuns = []RunSpec{
	mcSpec(config.Baseline, 1), mcSpec(config.Baseline, 2), mcSpec(config.Baseline, 4),
	mcSpec(config.DMDP, 1), mcSpec(config.DMDP, 2), mcSpec(config.DMDP, 4),
}

// mcSpec is the n-core machine over model m's default configuration.
func mcSpec(m config.Model, n int) RunSpec {
	return RunSpec{Cfg: config.Default(m), Label: fmt.Sprintf("%s-%dc", m, n), Cores: n}
}

// mcBenchCap bounds the multicore table to the first few proxies: each
// cell is an N-core machine run (machine results stay outside the
// single-core artifact store), so the table pays cores × benches full
// simulations every time.
const mcBenchCap = 6

func mcBenchmarks(r *Runner) []string {
	b := r.Benchmarks()
	if len(b) > mcBenchCap {
		b = b[:mcBenchCap]
	}
	return b
}

// mcDecl declares mc-ipc's machines: mcRuns on the first mcBenchCap
// proxies.
func mcDecl(r *Runner) []RunSpec { return cross(mcBenchmarks(r), mcRuns) }

// mcRun executes one n-core machine under ctx with the workload trace
// replicated on every core (core.NewReplicated).
func mcRun(ctx context.Context, cfg config.Config, n int, tr *trace.Trace) (*core.MachineStats, error) {
	m, err := core.NewReplicated(cfg, n, 0, tr)
	if err != nil {
		return nil, err
	}
	return m.RunContext(ctx)
}

// McIPC renders the multicore scaling table: aggregate IPC of 1, 2 and
// 4 identical cores over a shared L2, baseline vs DMDP. Replicating the
// same address stream is the worst case for coherence (every store
// invalidates every remote L1 and stamps its T-SSBF), so per-core IPC
// degrades with the core count while DMDP's margin over the baseline
// persists. A proxy whose trace or any machine failed is left out; the
// failure was recorded when the run executed.
func McIPC(r *Runner) (string, error) {
	t := stats.NewTable("Multicore: aggregate IPC over a shared L2 (same trace per core)",
		"bench", "base 1c", "base 2c", "base 4c", "dmdp 1c", "dmdp 2c", "dmdp 4c", "dmdp stamps 4c")
	for _, b := range mcBenchmarks(r) {
		res, ok := r.read(b, mcRuns)
		if !ok {
			continue
		}
		row := []any{b}
		for _, x := range res {
			row = append(row, x.mc.IPC())
		}
		// The row's last machine is the 4-core DMDP one.
		row = append(row, fmt.Sprintf("%d", res[len(res)-1].mc.RemoteStamps))
		t.AddF(3, row...)
	}
	out := t.String()
	out += "aggregate IPC; remote T-SSBF sentinel stamps shown for the 4-core DMDP machine\n"
	out += "(replicated traces share read misses in the L2 — superlinear baseline scaling —\n" +
		" while every store invalidates all remote L1s and stamps their T-SSBFs)\n"
	return out, nil
}
