// Command experiments regenerates every table and figure of the paper's
// evaluation section.
//
// Usage:
//
//	experiments                     # everything, 300k instructions/proxy
//	experiments -only fig12,tab6    # a subset
//	experiments -instr 100000       # smaller budget
//	experiments -bench hmmer,bzip2  # benchmark subset
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dmdp/internal/cliutil"
	"dmdp/internal/experiments"
	"dmdp/internal/profiling"
)

func main() {
	var (
		instr    = flag.String("instr", "300000", "instruction budget per proxy (accepts 300000, 300_000, 300k)")
		only     = flag.String("only", "", "comma-separated experiment ids (default: all)")
		bench    = flag.String("bench", "", "comma-separated benchmark subset (default: all 21)")
		listFlag = flag.Bool("list", false, "list experiment ids and exit")
		serial   = flag.Bool("serial", false, "disable parallel simulation")
		jobsFlag = flag.Int("j", 0, "worker-pool width for parallel simulation (0 = GOMAXPROCS)")
		outDir   = flag.String("out", "", "also write each experiment's output to <dir>/<id>.txt")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file")
		timeout  = flag.Duration("timeout", 0, "wall-clock bound for the whole suite; on expiry in-flight runs cancel cleanly and partial results + the failure table still print (0 = none)")
		sample   = flag.String("sample", "", "samp-err sampling spec: auto | auto:K | COUNTxLEN, optionally +WARMUP (default: budget-derived)")
		warmF    = flag.Bool("warm", false, "add functionally-warmed rows to samp-err (caches/TLB/predictors warmed from the profiling pass)")
		cache    = cliutil.RegisterCache(flag.CommandLine)
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}

	if *listFlag {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	budget, err := cliutil.ParseInstr(*instr)
	if err != nil {
		fatal(fmt.Errorf("-instr: %w", err))
	}
	store, err := cache.Open()
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt := experiments.Options{Budget: budget, Parallel: !*serial, Jobs: *jobsFlag, Cache: store, Context: ctx, SampleWarm: *warmF}
	if *sample != "" {
		opt.Sample, err = cliutil.ParseSampleSpec(*sample)
		if err != nil {
			fatal(fmt.Errorf("-sample: %w", err))
		}
	}
	if *bench != "" {
		opt.Benchmarks = strings.Split(*bench, ",")
	}
	r := experiments.NewRunner(opt)

	selected := experiments.All()
	if *only != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*only, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fatal(fmt.Errorf("unknown experiment %q (use -list)", id))
			}
			selected = append(selected, e)
		}
	}

	start := time.Now()
	// Warm-up executes the union of every selected experiment's declared
	// runs on the worker pool; rendering below then hits only warm cache.
	// Failed runs are negatively cached and surface in the failure table,
	// so a warm-up error is a warning, not a stop.
	if err := r.WarmUp(selected...); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: warm-up: %v (continuing)\n", err)
	}
	// One broken experiment (or benchmark) must not sink the rest of the
	// suite: failed experiments are counted, failed benchmark runs are
	// collected by the runner, and everything else still renders.
	brokenExperiments := 0
	for _, e := range selected {
		t0 := time.Now()
		out, err := e.Run(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v (continuing)\n", e.ID, err)
			brokenExperiments++
			continue
		}
		// Stdout carries only results, so that it is byte-identical
		// across cache modes; the render time goes to stderr.
		fmt.Fprintf(os.Stderr, "experiments: %s rendered in %.1fs\n", e.ID, time.Since(t0).Seconds())
		fmt.Printf("==== %s — %s ====\n", e.ID, e.Title)
		fmt.Println(out)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*outDir, e.ID+".txt")
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Printf("total: %.1fs, budget %d instructions x %d benchmarks\n",
		time.Since(start).Seconds(), budget, len(r.Benchmarks()))
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "experiments: -timeout %s reached: in-flight runs were cancelled; results above and the failure table below are partial\n", *timeout)
	}
	if table := r.FailureTable(); table != "" {
		fmt.Println()
		fmt.Println("==== failed benchmark runs ====")
		fmt.Println(table)
	}
	// The cache summary goes to stderr: stdout must stay byte-identical
	// across cold, warm and disabled caches.
	if line := store.Summary(); line != "" {
		fmt.Fprintln(os.Stderr, line)
	}
	// Flush profiles before the explicit failure exit (os.Exit skips
	// deferred calls).
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
	if brokenExperiments > 0 || len(r.Failures()) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
