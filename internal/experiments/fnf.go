package experiments

import (
	"fmt"
	"strings"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/stats"
)

// altFnFRuns are the Fire-and-Forget comparison's simulations.
var altFnFRuns = modelSpecs(config.Baseline, config.FnF, config.NoSQ, config.DMDP)

// AltFnF compares the three store-queue-free designs: NoSQ (load-side
// path-sensitive prediction), FnF (store-side, path-insensitive
// prediction) and DMDP. The paper chose NoSQ over Fire-and-Forget
// because "when FnF is predicting a store, the branches between the
// store and the dependent load are not considered" (§VII); this
// experiment quantifies the gap.
func AltFnF(r *Runner) (string, error) {
	t := stats.NewTable("Alt: Fire-and-Forget vs NoSQ vs DMDP (IPC vs baseline)",
		"bench", "fnf", "nosq", "dmdp", "fnf MPKI", "nosq MPKI")
	var rel []float64
	r.rows(altFnFRuns, func(b string, st []*core.Stats) {
		base, fnf, nosq, dmdp := st[0], st[1], st[2], st[3]
		rel = append(rel, nosq.IPC()/fnf.IPC())
		t.AddF(3, b,
			fnf.IPC()/base.IPC(), nosq.IPC()/base.IPC(), dmdp.IPC()/base.IPC(),
			stats.F(fnf.MPKI(), 2), stats.F(nosq.MPKI(), 2))
	})
	var out strings.Builder
	out.WriteString(t.String())
	fmt.Fprintf(&out, "geomean nosq over fnf: %s (paper's rationale: store-side prediction is path-insensitive)\n",
		stats.Pct(stats.Geomean(rel)))
	return out.String(), nil
}
