// Consistency: DMDP under the two single-core store-buffer policies.
// Under TSO the store buffer commits in program order; under RMO it may
// commit out of order, keeping per-word order, and SSNcommit trails the
// oldest uncommitted store. Either way the T-SSBF decides at retire
// which loads re-execute, and the simulator checks every retired load's
// value.
//
// Remote-core traffic (paper §IV-F) needs a second core: run
// `dmdpsim -cores 2`, or the abl-inval experiment of cmd/experiments,
// where a second core's stores invalidate the first core's lines and
// stamp its T-SSBF.
package main

import (
	"fmt"
	"log"

	"dmdp"
)

func main() {
	const bench = "gcc"
	const budget = 150_000

	tr, err := dmdp.BuildWorkloadTrace(bench, budget)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark %s (DMDP), %d instructions\n\n", bench, budget)
	fmt.Printf("%-6s %8s %10s %14s %8s\n", "model", "IPC", "reexecs", "SB-full/1k", "MPKI")

	for _, row := range []struct {
		name string
		cfg  dmdp.Config
	}{
		{"TSO", dmdp.DefaultConfig(dmdp.DMDP)},
		{"RMO", dmdp.DefaultConfig(dmdp.DMDP).WithConsistency(dmdp.RMO)},
	} {
		st, err := dmdp.Run(row.cfg, tr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %8.3f %10d %14.1f %8.2f\n",
			row.name, st.IPC(), st.Reexecs, st.SBStallsPerKilo(), st.MPKI())
	}

	fmt.Println("\nFor remote-core invalidations (§IV-F), run `dmdpsim -cores 2` or")
	fmt.Println("`experiments -only abl-inval`.")
}
