// Command statsdigest prints a canonical per-(proxy, model) line of the
// architectural and microarchitectural counters of every simulation in
// the default suite. The output is a determinism oracle: two builds of
// the simulator are behaviorally identical iff their digests are
// byte-identical. Wall-clock observability counters (Stats.SimWallClock)
// are deliberately excluded — they are the only Stats fields allowed to
// differ between runs.
//
// Usage:
//
//	statsdigest                 # all 21 proxies x 5 models, 300k instructions
//	statsdigest -instr 50000    # smaller budget
//	statsdigest -bench hmmer    # one proxy
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"

	"dmdp"
	"dmdp/internal/artifact"
	"dmdp/internal/cliutil"
	"dmdp/internal/config"
)

func main() {
	var (
		instr = flag.String("instr", "300000", "instruction budget per proxy (accepts 300000, 300_000, 300k)")
		bench = flag.String("bench", "", "comma-separated proxy subset (default: all)")
		cache = cliutil.RegisterCache(flag.CommandLine)
	)
	flag.Parse()

	budget, err := cliutil.ParseInstr(*instr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statsdigest: -instr:", err)
		os.Exit(1)
	}
	store, err := cache.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "statsdigest:", err)
		os.Exit(1)
	}

	benches := dmdp.Workloads()
	if *bench != "" {
		benches = strings.Split(*bench, ",")
	}
	bad := false
	for _, b := range benches {
		bad = digest(store, b, budget) || bad
	}
	if line := store.Summary(); line != "" {
		fmt.Fprintln(os.Stderr, line)
	}
	if bad {
		os.Exit(1)
	}
}

// digest prints one proxy's line per model through the result store and
// reports whether any failed. In verify mode a hit is re-simulated and
// compared; a mismatch is a hard error (and a non-zero exit). The trace
// is resolved on the proxy's first miss or verified hit, so a warm store
// serves every result without reading it.
func digest(store *artifact.Store, bench string, budget int64) (bad bool) {
	src, err := dmdp.WorkloadSource(bench)
	if err != nil {
		fmt.Printf("%-12s -        trace error: %v\n", bench, err)
		return true
	}
	traceKey := artifact.TraceKey(sha256.Sum256([]byte(src)), budget)
	var tr *dmdp.Trace
	for _, m := range config.Models {
		cfg := dmdp.DefaultConfig(m)
		key := artifact.ResultKey(traceKey, cfg.Digest(), budget)
		st, err := store.Result(key, bench, m.String(), func() (st *dmdp.Stats, err error) {
			if tr == nil {
				tr, err = store.Trace(traceKey, func() (*dmdp.Trace, error) { return dmdp.BuildWorkloadTrace(bench, budget) })
			}
			if err == nil {
				st, err = dmdp.Run(cfg, tr)
			}
			return st, err
		})
		if err != nil {
			fmt.Printf("%-12s %-8s error: %v\n", bench, m, err)
			bad = true
			continue
		}
		fmt.Printf("%-12s %-8s %s\n", bench, m, st.DigestLine())
	}
	return bad
}
