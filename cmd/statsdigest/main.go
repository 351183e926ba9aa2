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
		tr, traceKey, err := buildTrace(store, b, budget)
		if err != nil {
			fmt.Printf("%-12s -        trace error: %v\n", b, err)
			bad = true
			continue
		}
		for _, m := range config.Models {
			st, err := run(store, tr, traceKey, m, budget, b)
			if err != nil {
				fmt.Printf("%-12s %-8s error: %v\n", b, m, err)
				bad = true
				continue
			}
			fmt.Printf("%-12s %-8s %s\n", b, m, st.DigestLine())
		}
	}
	if line := store.Summary(); line != "" {
		fmt.Fprintln(os.Stderr, line)
	}
	if bad {
		os.Exit(1)
	}
}

// buildTrace fetches (or builds and persists) the proxy's trace through
// the artifact store. The digest simulates every model of the proxy, so
// the trace is resolved up front rather than per result miss.
func buildTrace(store *artifact.Store, bench string, budget int64) (*dmdp.Trace, artifact.Key, error) {
	src, err := dmdp.WorkloadSource(bench)
	if err != nil {
		return nil, artifact.Key{}, err
	}
	key := artifact.TraceKey(sha256.Sum256([]byte(src)), budget)
	tr, err := store.Trace(key, func() (*dmdp.Trace, error) { return dmdp.BuildWorkloadTrace(bench, budget) })
	return tr, key, err
}

// run simulates one (proxy, model) pair through the result store. In
// verify mode a hit is re-simulated and compared; a mismatch is a hard
// error (and a non-zero exit).
func run(store *artifact.Store, tr *dmdp.Trace, traceKey artifact.Key, m dmdp.Model, budget int64, bench string) (*dmdp.Stats, error) {
	cfg := dmdp.DefaultConfig(m)
	key := artifact.ResultKey(traceKey, cfg.Digest(), budget)
	return store.Result(key, bench, m.String(), func() (*dmdp.Stats, error) { return dmdp.Run(cfg, tr) })
}
