package experiments

import (
	"fmt"
	"strings"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/stats"
)

// tab4Runs are Table IV's simulations: Baseline and DMDP.
var tab4Runs = modelSpecs(config.Baseline, config.DMDP)

// TableIV reproduces Table IV: average execution time (cycles between
// rename and the result becoming available) of all loads, baseline vs
// DMDP. The paper saves >20% on average, with wrf and bzip2 halved.
func TableIV(r *Runner) (string, error) {
	t := stats.NewTable("Table IV: average execution time of all loads (cycles)",
		"bench", "baseline", "dmdp", "saving")
	var base, dm []float64
	r.rows(tab4Runs, func(b string, st []*core.Stats) {
		tb, td := st[0].MeanLoadExecTime(), st[1].MeanLoadExecTime()
		base = append(base, tb)
		dm = append(dm, td)
		saving := "-"
		if tb > 0 {
			saving = fmt.Sprintf("%.1f%%", 100*(tb-td)/tb)
		}
		t.AddF(2, b, tb, td, saving)
	})
	out := t.String()
	mb, md := stats.Mean(base), stats.Mean(dm)
	out += fmt.Sprintf("average: baseline %.2f, dmdp %.2f (paper: 39.31 vs 31.15; saving >20%%)\n", mb, md)
	return out, nil
}

// TableV reproduces Table V: average execution time of the
// low-confidence loads, NoSQ (delayed) vs DMDP (predicated). The paper
// saves 54.48% on average, up to 79.25%, with lib the lone inversion.
func TableV(r *Runner) (string, error) {
	t := stats.NewTable("Table V: average execution time of low-confidence loads (cycles)",
		"bench", "nosq", "dmdp", "saving", "nosq#", "dmdp#")
	var savings []float64
	r.rows(noSQDMDPRuns, func(b string, st []*core.Stats) {
		sn, sd := st[0], st[1]
		tn, td := sn.MeanLowConfExecTime(), sd.MeanLowConfExecTime()
		saving := "-"
		if tn > 0 && td > 0 && sn.LowConfCount > 20 && sd.LowConfCount > 20 {
			s := 100 * (tn - td) / tn
			savings = append(savings, s)
			saving = fmt.Sprintf("%.1f%%", s)
		}
		t.AddF(2, b, tn, td, saving, sn.LowConfCount, sd.LowConfCount)
	})
	out := t.String()
	if len(savings) > 0 {
		out += fmt.Sprintf("mean saving: %.1f%% (paper: 54.48%%, max 79.25%%)\n", stats.Mean(savings))
	}
	return out, nil
}

// TableVI reproduces Table VI: memory dependence mispredictions per 1k
// instructions. DMDP generally has fewer than NoSQ (biased confidence)
// except where distances churn (bzip2).
func TableVI(r *Runner) (string, error) {
	t := stats.NewTable("Table VI: memory dependence mispredictions (MPKI)",
		"bench", "nosq", "dmdp")
	var n, d []float64
	r.rows(noSQDMDPRuns, func(b string, st []*core.Stats) {
		sn, sd := st[0], st[1]
		n = append(n, sn.MPKI())
		d = append(d, sd.MPKI())
		t.AddF(3, b, sn.MPKI(), sd.MPKI())
	})
	out := t.String()
	out += fmt.Sprintf("mean MPKI: nosq %.2f, dmdp %.2f (paper: hmmer 3.06 vs 1.03; bzip2 inverted)\n",
		stats.Mean(n), stats.Mean(d))
	return out, nil
}

// TableVII reproduces Table VII: retire-stall cycles from load
// re-execution per 1k committed instructions. DMDP stalls more than NoSQ
// (its loads execute earlier, widening the vulnerability window); lbm is
// the worst case.
func TableVII(r *Runner) (string, error) {
	t := stats.NewTable("Table VII: re-execution stall cycles per 1k instructions",
		"bench", "nosq", "dmdp", "reexecs(nosq)", "reexecs(dmdp)")
	var n, d []float64
	r.rows(noSQDMDPRuns, func(b string, st []*core.Stats) {
		sn, sd := st[0], st[1]
		n = append(n, sn.ReexecStallsPerKilo())
		d = append(d, sd.ReexecStallsPerKilo())
		t.AddF(2, b, sn.ReexecStallsPerKilo(), sd.ReexecStallsPerKilo(),
			sn.Reexecs, sd.Reexecs)
	})
	out := t.String()
	out += fmt.Sprintf("mean stalls/1k: nosq %.1f, dmdp %.1f (paper: DMDP higher everywhere, lbm worst)\n",
		stats.Mean(n), stats.Mean(d))
	return out, nil
}

// relGeomeans reports DMDP-over-NoSQ IPC per proxy and geomeans for
// both suites from an altRuns list.
func (r *Runner) relGeomeans(specs []RunSpec) string {
	byClass := map[string][]float64{"Int": {}, "FP": {}}
	t := stats.NewTable("", "bench", "dmdp/nosq")
	r.rows(specs, func(b string, st []*core.Stats) {
		rel := st[1].IPC() / st[0].IPC()
		cls := "Int"
		if isFP(r, b) {
			cls = "FP"
		}
		byClass[cls] = append(byClass[cls], rel)
		t.AddF(3, b, rel)
	})
	var out strings.Builder
	out.WriteString(t.String())
	for _, cls := range []string{"Int", "FP"} {
		if len(byClass[cls]) == 0 {
			continue
		}
		fmt.Fprintf(&out, "%s geomean dmdp over nosq: %s\n", cls, stats.Pct(stats.Geomean(byClass[cls])))
	}
	return out.String()
}

// altRuns is a relGeomeans alternative's run list: NoSQ and DMDP under
// the transformed configuration.
func altRuns(label string, cfgOf func(config.Model) config.Config) []RunSpec {
	return []RunSpec{
		{Cfg: cfgOf(config.NoSQ), Label: "nosq-" + label},
		{Cfg: cfgOf(config.DMDP), Label: "dmdp-" + label},
	}
}

// The §VI-g alternatives' run lists.
var (
	altIssue4Runs = altRuns("4w", func(m config.Model) config.Config {
		return config.Default(m).WithIssueWidth(4)
	})
	altROB512Runs = altRuns("rob512", func(m config.Model) config.Config {
		return config.Default(m).WithROB(512)
	})
	altRMORuns = altRuns("rmo", func(m config.Model) config.Config {
		return config.Default(m).WithConsistency(config.RMO)
	})
)

// AltIssue4 reproduces the 4-issue alternative (§VI-g): the DMDP-over-NoSQ
// gain shrinks (paper: +4.56% Int, +2.41% FP).
func AltIssue4(r *Runner) (string, error) {
	return "Alt: 4-issue width (paper: +4.56% Int, +2.41% FP)\n" + r.relGeomeans(altIssue4Runs), nil
}

// AltROB512 reproduces the 512-entry ROB alternative (§VI-g): the gain
// grows (paper: +7.56% Int, +6.35% FP).
func AltROB512(r *Runner) (string, error) {
	return "Alt: 512-entry ROB (paper: +7.56% Int, +6.35% FP)\n" + r.relGeomeans(altROB512Runs), nil
}

// AltRMO reproduces the relaxed memory order alternative (§VI-g): gains
// similar to TSO (paper: +7.67% Int, +4.08% FP).
func AltRMO(r *Runner) (string, error) {
	return "Alt: RMO consistency (paper: +7.67% Int, +4.08% FP)\n" + r.relGeomeans(altRMORuns), nil
}

// altPRFRuns are the register-file-pressure simulations: Baseline and
// DMDP at 320 and then 160 physical registers. (The 320-register points
// are the default machines, so the digest cache folds them into the
// shared "baseline"/"dmdp" runs.)
var altPRFRuns = []RunSpec{
	{Cfg: config.Default(config.Baseline).WithPhysRegs(320), Label: "baseline-prf320"},
	{Cfg: config.Default(config.DMDP).WithPhysRegs(320), Label: "dmdp-prf320"},
	{Cfg: config.Default(config.Baseline).WithPhysRegs(160), Label: "baseline-prf160"},
	{Cfg: config.Default(config.DMDP).WithPhysRegs(160), Label: "dmdp-prf160"},
}

// AltPRF160 reproduces the register file pressure experiment (§VI-f):
// halving the physical register file (320 -> 160) shrinks DMDP's gain
// over the baseline (paper: 4.94% -> 4.24%). Each size's geomean reads
// its own pair of runs, so a proxy that fails at one size still counts
// at the other.
func AltPRF160(r *Runner) (string, error) {
	gain := func(specs []RunSpec) float64 {
		var rels []float64
		r.rows(specs, func(_ string, st []*core.Stats) {
			rels = append(rels, st[1].IPC()/st[0].IPC())
		})
		return stats.Geomean(rels)
	}
	g320 := gain(altPRFRuns[:2])
	g160 := gain(altPRFRuns[2:])
	return fmt.Sprintf("Alt: register file pressure\n"+
		"dmdp over baseline, 320 regs: %s\n"+
		"dmdp over baseline, 160 regs: %s\n"+
		"paper: +4.94%% -> +4.24%% (gain shrinks when the PRF halves)\n",
		stats.Pct(g320), stats.Pct(g160)), nil
}
