// Command litmus verifies the multicore machine against the I2E
// reference executor: every named shape and any number of seeded random
// litmus tests run across interleaving seeds, and any final state
// outside the reference-allowed set is a consistency violation (exit 1),
// optionally delta-minimized to a small runnable repro.
//
// Usage:
//
//	litmus -model sc -seeds 100 -j 8
//	litmus -model tso -shapes SB,MP -random 50 -minimize
//	litmus -model sc -weaken -minimize     # the seeded bug must be caught
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/litmus"
	"dmdp/internal/progen"
)

func main() {
	var (
		modelName = flag.String("model", "sc", "memory model to enforce and verify: sc | tso")
		coreName  = flag.String("core", "dmdp", "per-core timing model: baseline | nosq | dmdp | perfect | fnf")
		shapes    = flag.String("shapes", "all", "comma-separated named shapes (SB,MP,LB,IRIW,CoRR), all, or none")
		random    = flag.Int("random", 0, "number of seeded random litmus tests to add")
		firstSeed = flag.Uint64("firstseed", 0, "first random-test generator seed")
		seeds     = flag.Int("seeds", 50, "interleaving seeds per test")
		jobs      = flag.Int("j", 1, "worker-pool width (the digest is identical at any width)")
		weaken    = flag.Bool("weaken", false, "run the deliberately weakened machine (enforcement off)")
		minimize  = flag.Bool("minimize", false, "ddmin the first violation to a small repro")
		verbose   = flag.Bool("v", false, "print per-test digest lines")
	)
	flag.Parse()

	model, err := core.ParseMemModel(*modelName)
	if err != nil {
		fatal(err)
	}
	coreModel, err := config.ParseModel(*coreName)
	if err != nil {
		fatal(fmt.Errorf("-core: %w", err))
	}

	var names []string
	switch *shapes {
	case "all":
		names = progen.LitmusShapeNames()
	case "none", "":
	default:
		names = strings.Split(*shapes, ",")
	}
	tests, err := litmus.Suite(names, *random, *firstSeed)
	if err != nil {
		fatal(err)
	}
	if len(tests) == 0 {
		fatal(fmt.Errorf("no tests selected (-shapes none and -random 0)"))
	}

	opt := litmus.Options{
		Model: model, CoreModel: coreModel,
		Seeds: *seeds, Jobs: *jobs,
		Weaken: *weaken, Minimize: *minimize,
	}
	results, violations, err := litmus.CheckAll(tests, opt)
	if err != nil {
		fatal(err)
	}

	for _, r := range results {
		status := "ok"
		if len(r.Violations) > 0 {
			status = fmt.Sprintf("VIOLATED x%d", len(r.Violations))
		}
		fmt.Printf("%-12s %-3s allowed=%d covered=%d seeds=%d %s\n",
			r.Test, model, len(r.Allowed), r.Covered(), *seeds, status)
		if *verbose {
			for _, l := range r.DigestLines() {
				fmt.Println("  " + l)
			}
		}
	}
	fmt.Printf("digest %s\n", litmus.Digest(results))

	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "litmus: %d consistency violation(s) under %s\n", len(violations), model)
		for i := range violations {
			v := &violations[i]
			fmt.Fprintln(os.Stderr, "  "+v.Error())
			if v.Repro != nil {
				fmt.Fprintf(os.Stderr, "minimized repro (%d static instructions, %d trials):\n%s",
					v.Repro.Static, v.Repro.Trials, v.Repro.Source)
			}
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "litmus:", err)
	os.Exit(1)
}
