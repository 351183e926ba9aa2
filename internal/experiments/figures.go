package experiments

import (
	"fmt"
	"strings"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/power"
	"dmdp/internal/stats"
)

// noSQRuns are Figure 2's and Figure 3's simulations: NoSQ on every
// proxy.
var noSQRuns = modelSpecs(config.NoSQ)

// Fig2 reproduces Figure 2: how NoSQ loads obtain their values (Direct
// access / Bypassing / Delayed access).
func Fig2(r *Runner) (string, error) {
	t := stats.NewTable("Figure 2: NoSQ load instruction distribution (%)",
		"bench", "direct", "bypassing", "delayed")
	r.rows(noSQRuns, func(b string, st []*core.Stats) {
		loads := float64(st[0].TotalLoads())
		if loads == 0 {
			t.Add(b, "-", "-", "-")
			return
		}
		pct := func(c core.LoadCategory) float64 {
			return 100 * float64(st[0].LoadCount[c]) / loads
		}
		t.AddF(1, b, pct(core.LoadDirect), pct(core.LoadBypass), pct(core.LoadDelayed))
	})
	return t.String(), nil
}

// Fig3 reproduces Figure 3: mean execution time of Delayed-access loads
// relative to Bypassing loads under NoSQ. Ratios above 1 mean delayed
// loads take longer (the paper reports roughly 7x on average, with mcf
// the lone inversion).
func Fig3(r *Runner) (string, error) {
	t := stats.NewTable("Figure 3: delayed vs bypassing load execution time (NoSQ)",
		"bench", "bypass(cyc)", "delayed(cyc)", "ratio")
	var ratios []float64
	r.rows(noSQRuns, func(b string, st []*core.Stats) {
		byp := st[0].MeanExecTime(core.LoadBypass)
		del := st[0].MeanExecTime(core.LoadDelayed)
		if byp <= 0 || del <= 0 {
			t.Add(b, stats.F(byp, 2), stats.F(del, 2), "-")
			return
		}
		ratio := del / byp
		ratios = append(ratios, ratio)
		t.AddF(2, b, byp, del, ratio)
	})
	out := t.String()
	if len(ratios) > 0 {
		out += fmt.Sprintf("geomean ratio: %.2fx (paper: ~7x, mcf inverted)\n", stats.Geomean(ratios))
	}
	return out, nil
}

// dmdpRuns are Figure 5's simulations, DMDP on every proxy, and
// abl-inval's quiet reference runs.
var dmdpRuns = modelSpecs(config.DMDP)

// Fig5 reproduces Figure 5: ground-truth outcomes of low-confidence load
// predictions under DMDP — IndepStore should dominate everywhere.
func Fig5(r *Runner) (string, error) {
	t := stats.NewTable("Figure 5: low-confidence load prediction outcomes (DMDP, %)",
		"bench", "lowconf", "IndepStore", "DiffStore", "Correct")
	var indepTot, allTot float64
	r.rows(dmdpRuns, func(b string, sts []*core.Stats) {
		st := sts[0]
		n := float64(st.LowConfCount)
		if n == 0 {
			t.Add(b, "0", "-", "-", "-")
			return
		}
		ind := 100 * float64(st.LowConfOutcomes[core.LowConfIndepStore]) / n
		dif := 100 * float64(st.LowConfOutcomes[core.LowConfDiffStore]) / n
		cor := 100 * float64(st.LowConfOutcomes[core.LowConfCorrect]) / n
		indepTot += float64(st.LowConfOutcomes[core.LowConfIndepStore])
		allTot += n
		t.AddF(1, b, st.LowConfCount, ind, dif, cor)
	})
	out := t.String()
	if allTot > 0 {
		out += fmt.Sprintf("overall IndepStore share: %.1f%% (paper: dominates every benchmark)\n",
			100*indepTot/allTot)
	}
	return out, nil
}

// fig12Runs are Figure 12's simulations: the four default models.
var fig12Runs = modelSpecs(config.Baseline, config.NoSQ, config.DMDP, config.Perfect)

// Fig12 reproduces Figure 12: IPC of NoSQ, DMDP and Perfect normalized to
// the baseline store-queue machine, with Integer/Float geometric means.
// The headline numbers are DMDP-over-NoSQ: +7.17% Int, +4.48% FP.
func Fig12(r *Runner) (string, error) {
	t := stats.NewTable("Figure 12: speedup over baseline (IPC ratio)",
		"bench", "nosq", "dmdp", "perfect", "dmdp/nosq")
	type accum struct{ nosq, dmdp, perfect, rel []float64 }
	byClass := map[string]*accum{"Int": {}, "FP": {}}

	r.rows(fig12Runs, func(b string, st []*core.Stats) {
		base, nosq, dmdp, perf := st[0], st[1], st[2], st[3]
		bn := nosq.IPC() / base.IPC()
		bd := dmdp.IPC() / base.IPC()
		bp := perf.IPC() / base.IPC()
		rel := dmdp.IPC() / nosq.IPC()
		cls := "Int"
		if isFP(r, b) {
			cls = "FP"
		}
		a := byClass[cls]
		a.nosq = append(a.nosq, bn)
		a.dmdp = append(a.dmdp, bd)
		a.perfect = append(a.perfect, bp)
		a.rel = append(a.rel, rel)
		t.AddF(3, b, bn, bd, bp, rel)
	})
	var b strings.Builder
	b.WriteString(t.String())
	for _, cls := range []string{"Int", "FP"} {
		a := byClass[cls]
		if len(a.nosq) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s geomean: nosq %.3f, dmdp %.3f, perfect %.3f | dmdp over nosq %s\n",
			cls, stats.Geomean(a.nosq), stats.Geomean(a.dmdp), stats.Geomean(a.perfect),
			stats.Pct(stats.Geomean(a.rel)))
	}
	b.WriteString("paper: nosq 0.975/1.008, dmdp 1.045/1.053, perfect 1.068/1.066; dmdp over nosq +7.17% Int, +4.48% FP\n")
	return b.String(), nil
}

// fig14Runs are Figure 14's simulations: the DMDP store-buffer sweep.
// (The 32-entry point is the default DMDP machine, so the digest cache
// folds it into the shared "dmdp" run.)
var fig14Runs = []RunSpec{
	{Cfg: config.Default(config.DMDP).WithStoreBuffer(16), Label: "dmdp-sb16"},
	{Cfg: config.Default(config.DMDP).WithStoreBuffer(32), Label: "dmdp-sb32"},
	{Cfg: config.Default(config.DMDP).WithStoreBuffer(64), Label: "dmdp-sb64"},
}

// Fig14 reproduces Figure 14: DMDP with 32- and 64-entry store buffers
// normalized to a 16-entry one, plus the store-buffer-full stall cycles
// per 1k instructions (paper: 503.1 / 220.5 / 75.0).
func Fig14(r *Runner) (string, error) {
	t := stats.NewTable("Figure 14: store buffer size sweep (DMDP, speedup vs 16-entry)",
		"bench", "sb32/sb16", "sb64/sb16", "stall16/1k", "stall32/1k", "stall64/1k")
	type acc struct{ s32, s64 []float64 }
	byClass := map[string]*acc{"Int": {}, "FP": {}}
	var stalls [3]float64
	count := 0

	r.rows(fig14Runs, func(b string, st []*core.Stats) {
		for i := range stalls {
			stalls[i] += st[i].SBStallsPerKilo()
		}
		count++
		r32 := st[1].IPC() / st[0].IPC()
		r64 := st[2].IPC() / st[0].IPC()
		cls := "Int"
		if isFP(r, b) {
			cls = "FP"
		}
		byClass[cls].s32 = append(byClass[cls].s32, r32)
		byClass[cls].s64 = append(byClass[cls].s64, r64)
		t.AddF(3, b, r32, r64,
			stats.F(st[0].SBStallsPerKilo(), 1),
			stats.F(st[1].SBStallsPerKilo(), 1),
			stats.F(st[2].SBStallsPerKilo(), 1))
	})
	var b strings.Builder
	b.WriteString(t.String())
	for _, cls := range []string{"Int", "FP"} {
		a := byClass[cls]
		if len(a.s32) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s geomean: 32-entry %s, 64-entry %s over 16-entry\n",
			cls, stats.Pct(stats.Geomean(a.s32)), stats.Pct(stats.Geomean(a.s64)))
	}
	if count > 0 {
		fmt.Fprintf(&b, "mean SB-full stalls per 1k instr: 16e %.1f, 32e %.1f, 64e %.1f (paper: 503.1/220.5/75.0)\n",
			stalls[0]/float64(count), stalls[1]/float64(count), stalls[2]/float64(count))
	}
	b.WriteString("paper: +2.07%/+2.77% Int, +3.81%/+5.01% FP; lbm most sensitive\n")
	return b.String(), nil
}

// noSQDMDPRuns are the simulations of Figure 15 (the power model
// evaluates on their stats) and of Tables V–VII: NoSQ and DMDP.
var noSQDMDPRuns = modelSpecs(config.NoSQ, config.DMDP)

// Fig15 reproduces Figure 15: DMDP's energy-delay product normalized to
// NoSQ (paper: saves 8.5% Int, 5.1% FP; ~6.7% overall).
func Fig15(r *Runner) (string, error) {
	t := stats.NewTable("Figure 15: EDP of DMDP normalized to NoSQ",
		"bench", "energy ratio", "delay ratio", "EDP ratio")
	type acc struct{ edp []float64 }
	byClass := map[string]*acc{"Int": {}, "FP": {}}
	r.rows(noSQDMDPRuns, func(b string, st []*core.Stats) {
		sn, sd := st[0], st[1]
		en, ed := power.Compute(sn, power.DefaultParams()), power.Compute(sd, power.DefaultParams())
		eratio := ed.TotalPJ / en.TotalPJ
		dratio := float64(sd.Cycles) / float64(sn.Cycles)
		edp := ed.EDP / en.EDP
		cls := "Int"
		if isFP(r, b) {
			cls = "FP"
		}
		byClass[cls].edp = append(byClass[cls].edp, edp)
		t.AddF(3, b, eratio, dratio, edp)
	})
	var b strings.Builder
	b.WriteString(t.String())
	for _, cls := range []string{"Int", "FP"} {
		a := byClass[cls]
		if len(a.edp) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s geomean EDP ratio: %.3f (paper: %s)\n",
			cls, stats.Geomean(a.edp), map[string]string{"Int": "0.915", "FP": "0.949"}[cls])
	}
	return b.String(), nil
}

func isFP(r *Runner, bench string) bool {
	for _, n := range r.fpBenchmarks() {
		if n == bench {
			return true
		}
	}
	return false
}
