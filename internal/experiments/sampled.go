package experiments

import (
	"fmt"
	"math"
	"slices"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/sampling"
	"dmdp/internal/stats"
)

// sampErrRuns are the sampled-error experiment's full-trace reference
// runs: every model, in config.Models order.
var sampErrRuns = modelSpecs(config.Models...)

// sampledRuns are samp-err's sampled estimates of every model, in
// config.Models order: cold-start, or functionally warmed.
func sampledRuns(warm bool) []RunSpec {
	specs := modelSpecs(config.Models...)
	for i := range specs {
		specs[i].Sampled, specs[i].Warm = true, warm
		specs[i].Label += "-sampled"
		if warm {
			specs[i].Label += "+warm"
		}
	}
	return specs
}

// sampWarmModes lists samp-err's rows per benchmark: cold-start, then,
// with Options.SampleWarm, functionally warmed.
func (r *Runner) sampWarmModes() []bool {
	if r.opt.SampleWarm {
		return []bool{false, true}
	}
	return []bool{false}
}

// sampErrDecl declares samp-err's runs: the full reference runs, then the
// sampled estimates of every row.
func sampErrDecl(r *Runner) []RunSpec {
	specs := slices.Clone(sampErrRuns)
	for _, warm := range r.sampWarmModes() {
		specs = append(specs, sampledRuns(warm)...)
	}
	return cross(r.opt.Benchmarks, specs)
}

// sampSpec resolves the sampling spec for samp-err: the explicit
// Options.Sample when one was given, otherwise a budget-derived default
// of 10 centered intervals covering ~20% of the trace, each preceded by
// two interval-lengths of warm-up. The heavy warm-up matters: intervals
// restore exact architectural state from checkpoints but start with
// cold caches and predictors, and the cold-start bias decays only over
// ~100k+ instructions on cache-bound proxies (mcf). With warm-up =
// 2x length the mid-budget error is <4% on compute-bound proxies (with
// length/4 it was >30%); streaming proxies keep a structural cold-start
// bias no warm-up length can remove — see EXPERIMENTS.md
// ("Sampled-budget methodology") for the measured L2-saturation trigger.
func (r *Runner) sampSpec() sampling.Spec {
	if s := r.opt.Sample; s.Auto || s.Count > 0 {
		return s
	}
	l := r.opt.Budget / 50
	if l < 500 {
		l = 500
	}
	if l > 1_000_000 {
		l = 1_000_000
	}
	// At tiny (test) budgets the 500-entry floor would overflow the
	// trace; cap the ten intervals at half the budget so the plan
	// always fits.
	if fit := r.opt.Budget / 20; l > fit {
		l = fit
	}
	if l < 1 {
		l = 1
	}
	return sampling.Spec{Count: 10, Len: int(l), Warmup: int(2 * l)}
}

// SampErr validates the sampling methodology (paper §V): for every
// benchmark and model, the full-budget IPC is compared against the
// weighted sampled estimate, and the signed error is tabulated. The
// sampled runs slice the runner's cached traces, so the marginal cost
// over the reference suite is the sampled intervals themselves.
func SampErr(r *Runner) (string, error) {
	spec := r.sampSpec()
	t := stats.NewTable(
		fmt.Sprintf("Sampled-vs-full IPC error, spec %s, budget %d", spec.String(), r.opt.Budget),
		"bench", "baseline", "nosq", "dmdp", "perfect", "fnf")
	// With Options.SampleWarm each benchmark gets a second, functionally
	// warmed row (suffix "+warm"): same intervals, but cache/TLB/predictor
	// tag state installed from the profiling pass before detailed
	// simulation. Rows where any interval fell back to a cold start
	// (missing/corrupt warm state) are marked with a trailing dagger: the
	// estimate is still correct, just less representative.
	warmModes := r.sampWarmModes()
	perModel := make([][][]float64, len(warmModes))
	for mi := range warmModes {
		perModel[mi] = make([][]float64, len(config.Models))
	}
	var share []float64
	daggered := false
	r.rows(sampErrRuns, func(b string, full []*core.Stats) {
		for mi, warmed := range warmModes {
			res, ok := r.read(b, sampledRuns(warmed))
			if !ok {
				continue // row omitted; the failed run was recorded
			}
			label := b
			if warmed {
				label += "+warm"
			}
			cells := []string{label}
			coldStarts := false
			for i, m := range config.Models {
				ipc, out := full[i].IPC(), res[i].samp
				if out.ColdStartIntervals > 0 {
					coldStarts = true
				}
				e := 100 * (out.Combined.WeightedIPC - ipc) / ipc
				perModel[mi][i] = append(perModel[mi][i], math.Abs(e))
				cells = append(cells, fmt.Sprintf("%+.2f%%", e))
				if m == config.DMDP && !warmed {
					share = append(share,
						100*float64(out.Combined.TotalInstructions)/float64(out.Total))
				}
			}
			if coldStarts {
				cells[0] += " †"
				daggered = true
			}
			t.Add(cells...)
		}
	})
	out := t.String()
	for mi, warmed := range warmModes {
		if warmed {
			out += "mean |error| (warmed):"
		} else {
			out += "mean |error|:"
		}
		for i, m := range config.Models {
			out += fmt.Sprintf(" %s %.2f%%", m, stats.Mean(perModel[mi][i]))
		}
		out += "\n"
	}
	out += fmt.Sprintf("sampled share: %.1f%% of the full trace (dmdp runs)\n", stats.Mean(share))
	if daggered {
		out += "† at least one interval cold-started (warm state missing or corrupt)\n"
	}
	return out, nil
}
