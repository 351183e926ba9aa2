package main

import (
	"fmt"
	"sort"
	"time"

	"dmdp/internal/config"
)

// metricDecl declares one reported metric. BENCHMARK.json lists the same
// names, units and directions; README.md says which end-to-end metric
// each per-layer metric should move, and on which workload.
type metricDecl struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDecl{
	{"wall_ref_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

// detailProxies and detailModels are the runs the detail workload
// simulates; the suite runs them too, at its own budget.
var (
	detailProxies = []string{"gcc", "hmmer", "mcf", "lbm"}
	detailModels  = []config.Model{config.DMDP, config.NoSQ}
)

// perLayer are the metrics of a traced run. Every workload reports every
// one of them; a layer that does no work on a workload, or whose time
// cannot be attributed from outside on it, reads 0 there.
var perLayer = func() []metricDecl {
	out := []metricDecl{
		{"asm.program_ms", "ms", "lower"},
		{"emu.minst_per_s", "Minst/s", "higher"},
		{"trace.analyze_minst_per_s", "Minst/s", "higher"},
	}
	for _, p := range detailProxies {
		for _, m := range detailModels {
			out = append(out, metricDecl{coreRateName(p, m.String()), "Minst/s", "higher"})
		}
	}
	return append(out,
		metricDecl{"core.ns_per_cycle", "ns", "lower"},
		metricDecl{"core.ns_per_uop", "ns", "lower"},
		metricDecl{"core.squashed_frac", "frac", "lower"},
		metricDecl{"core.new_ms", "ms", "lower"},
		metricDecl{"core.alloc_mib_per_run", "MiB", "lower"},
		metricDecl{"core.cycles", "count", "lower"},
		metricDecl{"core.uops", "count", "lower"},
		metricDecl{"sampling.profile_minst_per_s", "Minst/s", "higher"},
		metricDecl{"warm.update_mentries_per_s", "Mentries/s", "higher"},
		metricDecl{"sampling.restore_ms", "ms", "lower"},
		metricDecl{"warm.install_ms", "ms", "lower"},
		metricDecl{"sampling.interval_minst_per_s", "Minst/s", "higher"},
		metricDecl{"sampling.plan_hit_frac", "frac", "higher"},
		metricDecl{"warm.warmed_frac", "frac", "higher"},
		metricDecl{"artifact.write_mib", "MiB", "lower"},
		metricDecl{"artifact.read_mib", "MiB", "lower"},
		metricDecl{"artifact.entries_written", "count", "lower"},
		metricDecl{"experiments.warmup_s", "s", "lower"},
		metricDecl{"experiments.render_s.samp-err", "s", "lower"},
		metricDecl{"experiments.render_s.mc-ipc", "s", "lower"},
		metricDecl{"experiments.render_s.rest", "s", "lower"},
		metricDecl{"experiments.dedup_frac", "frac", "lower"},
		metricDecl{"sched.busy_frac.warmup", "frac", "higher"},
		metricDecl{"sched.busy_frac.render", "frac", "higher"},
		metricDecl{"go.gc_cpu_frac", "frac", "lower"},
		metricDecl{"go.alloc_mib", "MiB", "lower"},
		metricDecl{"bench.tracing_overhead_frac", "frac", "lower"},
		metricDecl{"bench.wall_s", "s", "lower"},
		metricDecl{"bench.setup_s", "s", "lower"},
		metricDecl{"bench.probe_ms", "ms", "lower"},
	)
}()

func coreRateName(proxy, model string) string {
	return "core.minst_per_s." + proxy + "." + model
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect attaches units to the measured values, defaulting every
// declared metric the workload left unset to 0. A measured name that is
// not declared is a benchmark bug.
func collect(decls []metricDecl, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		out[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is measured but not declared", name)
		}
	}
	return out, nil
}

// median returns the median duration in seconds (0 for none).
func median(ds []time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = d.Seconds()
	}
	return medianOf(vs)
}

// medianOf returns the median of vs (0 for none).
func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const mib = 1 << 20
