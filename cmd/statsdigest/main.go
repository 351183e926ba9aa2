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
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"dmdp"
	"dmdp/internal/artifact"
	"dmdp/internal/cliutil"
	"dmdp/internal/config"
	"dmdp/internal/experiments"
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

// digest prints one proxy's line per model and reports whether any
// failed. The runs go through an experiments.Runner over the store, the
// path every suite run takes: a hit needs no trace, a miss or a
// verify-mode hit resolves the proxy's trace once, and in verify mode a
// mismatch is a hard error (and a non-zero exit). Each proxy gets its own
// runner, so at most one proxy's trace is held at a time.
func digest(store *artifact.Store, bench string, budget int64) (bad bool) {
	if !slices.Contains(dmdp.Workloads(), bench) {
		fmt.Printf("%-12s -        trace error: dmdp: unknown workload %q\n", bench, bench)
		return true
	}
	r := experiments.NewRunner(experiments.Options{Budget: budget, Benchmarks: []string{bench}, Cache: store})
	for _, m := range config.Models {
		st, err := r.RunModel(bench, m)
		if err != nil {
			// The runner prefixes the bench and label this line prints.
			fmt.Printf("%-12s %-8s error: %v\n", bench, m, errors.Unwrap(err))
			bad = true
			continue
		}
		fmt.Printf("%-12s %-8s %s\n", bench, m, st.DigestLine())
	}
	return bad
}
