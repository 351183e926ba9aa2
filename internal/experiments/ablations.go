package experiments

import (
	"fmt"
	"strings"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/stats"
)

// The ablation experiments isolate design choices the paper discusses:
// the silent-store-aware predictor update policy (§VI-a calls it a
// double-edged sword and compares both settings on hmmer), the biased
// confidence update (§IV-E), store coalescing (§V), the TAGE-like store
// distance predictor (related work, §VII) and remote-core invalidation
// traffic (§IV-F).

// ablSilentRuns are the silent-store ablation's simulations.
var ablSilentRuns = []RunSpec{
	modelSpec(config.NoSQ),
	{Cfg: config.Default(config.NoSQ).WithSilentStorePolicy(false), Label: "nosq-nosilent"},
}

// AblSilentPolicy compares NoSQ with and without the silent-store-aware
// update. The paper: disabling it helps hmmer (fewer mispredictions) but
// hurts the other benchmarks (more re-executions).
func AblSilentPolicy(r *Runner) (string, error) {
	t := stats.NewTable("Ablation: silent-store-aware predictor update (NoSQ)",
		"bench", "aware IPC", "original IPC", "aware MPKI", "orig MPKI", "aware reexec/1k", "orig reexec/1k")
	var ratios []float64
	r.rows(ablSilentRuns, func(b string, st []*core.Stats) {
		on, off := st[0], st[1]
		ratios = append(ratios, on.IPC()/off.IPC())
		t.AddF(2, b, on.IPC(), off.IPC(), on.MPKI(), off.MPKI(),
			on.ReexecStallsPerKilo(), off.ReexecStallsPerKilo())
	})
	out := t.String()
	out += fmt.Sprintf("geomean aware/original: %s (paper: aware wins overall, loses on hmmer)\n",
		stats.Pct(stats.Geomean(ratios)))
	return out, nil
}

// ablBiasedRuns are the confidence ablation's simulations: DMDP with
// its biased confidence update and with a balanced one.
var ablBiasedRuns = func() []RunSpec {
	balanced := config.Default(config.DMDP)
	balanced.SDP.Biased = false
	return []RunSpec{modelSpec(config.DMDP), {Cfg: balanced, Label: "dmdp-balanced"}}
}()

// AblBiasedConfidence compares DMDP with the biased (divide-by-two)
// confidence update against a balanced (-1) variant: the bias trades
// extra predications for fewer full-penalty mispredictions (§IV-E).
func AblBiasedConfidence(r *Runner) (string, error) {
	t := stats.NewTable("Ablation: biased vs balanced confidence update (DMDP)",
		"bench", "biased IPC", "balanced IPC", "biased MPKI", "bal MPKI", "biased pred#", "bal pred#")
	var ratios []float64
	r.rows(ablBiasedRuns, func(b string, st []*core.Stats) {
		bi, ba := st[0], st[1]
		ratios = append(ratios, bi.IPC()/ba.IPC())
		t.AddF(2, b, bi.IPC(), ba.IPC(), bi.MPKI(), ba.MPKI(), bi.Predications, ba.Predications)
	})
	out := t.String()
	out += fmt.Sprintf("geomean biased/balanced: %s (paper: fewer mispredictions at the cost of more predications)\n",
		stats.Pct(stats.Geomean(ratios)))
	return out, nil
}

// ablTAGERuns are the TAGE ablation's simulations.
var ablTAGERuns = []RunSpec{
	modelSpec(config.DMDP),
	{Cfg: config.Default(config.DMDP).WithTAGE(true), Label: "dmdp-tage"},
	modelSpec(config.NoSQ),
	{Cfg: config.Default(config.NoSQ).WithTAGE(true), Label: "nosq-tage"},
}

// AblTAGE swaps the two-table Store Distance Predictor for the TAGE-like
// predictor on both SQ-free models (the related-work extension, §VII).
func AblTAGE(r *Runner) (string, error) {
	t := stats.NewTable("Ablation: TAGE-like store distance predictor",
		"bench", "dmdp", "dmdp+tage", "nosq", "nosq+tage")
	var dr, nr []float64
	r.rows(ablTAGERuns, func(b string, st []*core.Stats) {
		d, dt, n, nt := st[0], st[1], st[2], st[3]
		dr = append(dr, dt.IPC()/d.IPC())
		nr = append(nr, nt.IPC()/n.IPC())
		t.AddF(3, b, d.IPC(), dt.IPC(), n.IPC(), nt.IPC())
	})
	out := t.String()
	out += fmt.Sprintf("geomean tage/classic: dmdp %s, nosq %s\n",
		stats.Pct(stats.Geomean(dr)), stats.Pct(stats.Geomean(nr)))
	return out, nil
}

// ablCoalesceRuns are the coalescing ablation's simulations.
var ablCoalesceRuns = []RunSpec{
	modelSpec(config.DMDP),
	{Cfg: config.Default(config.DMDP).WithCoalescing(false), Label: "dmdp-nocoalesce"},
}

// AblCoalescing disables TSO store coalescing: consecutive same-word
// stores then occupy the commit port individually (§V mentions
// coalescing alleviates write-port pressure).
func AblCoalescing(r *Runner) (string, error) {
	t := stats.NewTable("Ablation: store coalescing (DMDP)",
		"bench", "on IPC", "off IPC", "coalesced#", "sbstall-on/1k", "sbstall-off/1k")
	var ratios []float64
	r.rows(ablCoalesceRuns, func(b string, st []*core.Stats) {
		on, off := st[0], st[1]
		ratios = append(ratios, on.IPC()/off.IPC())
		t.AddF(2, b, on.IPC(), off.IPC(), on.StoresCoalesced,
			on.SBStallsPerKilo(), off.SBStallsPerKilo())
	})
	out := t.String()
	out += fmt.Sprintf("geomean on/off: %s\n", stats.Pct(stats.Geomean(ratios)))
	return out, nil
}

// ablInvalRuns are the invalidation ablation's runs, quiet and noisy;
// for the first proxies the noisy machine is mc-ipc's dmdp 2c cell.
var ablInvalRuns = []RunSpec{modelSpec(config.DMDP), mcSpec(config.DMDP, 2)}

// AblInvalidations measures remote-core consistency traffic (§IV-F) from
// real cross-core stores. Each proxy runs quiet, alone on one core, and
// noisy, as core 0 of a 2-core machine replaying the same trace on both
// cores over a shared L2 (mcRun). Every store the other core drains
// invalidates core 0's L1 line and stamps its T-SSBF, so loads that read
// the line early re-execute at retire: the traffic costs re-executions,
// never correctness.
func AblInvalidations(r *Runner) (string, error) {
	t := stats.NewTable("Ablation: remote invalidations from a second core running the same trace (DMDP)",
		"bench", "quiet IPC", "noisy IPC", "invals", "reexec-quiet", "reexec-noisy")
	var ratios []float64
	for _, b := range r.Benchmarks() {
		res, ok := r.read(b, ablInvalRuns)
		if !ok {
			continue
		}
		q, n := res[0].st, &res[1].mc.PerCore[0]
		ratios = append(ratios, n.IPC()/q.IPC())
		t.AddF(2, b, q.IPC(), n.IPC(), n.Invalidations, q.Reexecs, n.Reexecs)
	}
	var out strings.Builder
	out.WriteString(t.String())
	fmt.Fprintf(&out, "geomean noisy/quiet: %s (consistency traffic costs re-executions, never correctness)\n",
		stats.Pct(stats.Geomean(ratios)))
	out.WriteString("noisy = core 0 of a 2-core machine; the replicated trace also shares L2 read misses (see mc-ipc)\n")
	return out.String(), nil
}

// ablPrefetchRuns are the prefetcher ablation's simulations.
var ablPrefetchRuns = []RunSpec{
	modelSpec(config.DMDP),
	{Cfg: config.Default(config.DMDP).WithPrefetch(true), Label: "dmdp-prefetch"},
}

// AblPrefetch measures the interaction between a next-line L1 prefetcher
// and the store-load communication models: prefetching compresses the
// direct-load latency, which shrinks the absolute gap the SQ-free
// mechanisms can win back on streaming code.
func AblPrefetch(r *Runner) (string, error) {
	t := stats.NewTable("Ablation: next-line L1 prefetcher (DMDP)",
		"bench", "off IPC", "on IPC", "gain", "L1 miss off", "L1 miss on")
	var ratios []float64
	r.rows(ablPrefetchRuns, func(b string, st []*core.Stats) {
		off, on := st[0], st[1]
		ratios = append(ratios, on.IPC()/off.IPC())
		t.AddF(3, b, off.IPC(), on.IPC(), stats.Pct(on.IPC()/off.IPC()),
			stats.F(100*off.L1MissRate, 1), stats.F(100*on.L1MissRate, 1))
	})
	out := t.String()
	out += fmt.Sprintf("geomean on/off: %s\n", stats.Pct(stats.Geomean(ratios)))
	return out, nil
}
