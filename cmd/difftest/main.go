// Command difftest sweeps seeded random programs (internal/progen)
// through the lockstep differential harness (internal/difftest): every
// program runs on all five timing models with the architectural emulator
// retiring in lockstep, and any divergence is minimized to a small
// runnable .s repro carrying its (seed, knobs) coordinates.
//
// The sweep is deterministic: per-seed stats digest lines are collected
// in seed order regardless of worker count, so the aggregate digest
// printed at the end is byte-identical across -j1/-j8 and across hosts.
// The artifact cache is deliberately not wired in (-cache accepts only
// "off"): a cached result could mask a divergence, and the whole point
// of the sweep is to re-execute.
//
// Usage:
//
//	difftest -seeds 10000 -j 4                # CI sweep
//	difftest -seed 123 -seeds 1 -preset stack # reproduce one program
//	difftest -seeds 25 -corrupt 1             # fault demo: must diverge
package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"dmdp/internal/cliutil"
	"dmdp/internal/config"
	"dmdp/internal/difftest"
	"dmdp/internal/faults"
	"dmdp/internal/progen"
	"dmdp/internal/sched"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 1, "first seed of the sweep")
		seeds     = flag.Int("seeds", 100, "number of seeds to sweep")
		preset    = flag.String("preset", "all", "knob preset name, or \"all\" to cycle presets per seed ("+strings.Join(progen.PresetNames(), ", ")+")")
		instr     = flag.String("instr", "3000", "dynamic instruction budget per program (accepts 3000, 3_000, 3k)")
		models    = flag.String("models", "", "comma-separated model subset (default: all five)")
		jobs      = flag.Int("j", runtime.GOMAXPROCS(0), "worker pool width")
		cache     = flag.String("cache", "off", "artifact cache mode; only \"off\" is accepted (cached results could mask divergence)")
		corrupt   = flag.Float64("corrupt", 0, "injected value-corruption rate per retiring load (fault demo)")
		faultseed = flag.Int64("faultseed", 1, "fault injector PRNG seed")
		prf       = flag.Int("prf", 0, "physical register file size override (0 = model default)")
		minimize  = flag.Bool("minimize", true, "delta-debug divergences to a small repro")
		outDir    = flag.String("out", "difftest-failures", "directory for divergence repro bundles")
		verbose   = flag.Bool("v", false, "print every per-seed digest line")
		timeout   = flag.Duration("timeout", 0, "wall-clock bound for the sweep; on expiry no new seeds start, in-flight seeds finish, and the partial summary prints (0 = none)")
	)
	flag.Parse()

	if *cache != "off" {
		fatal(fmt.Errorf("-cache %s: the differential sweep always re-executes; only -cache off is supported", *cache))
	}
	budget, err := cliutil.ParseInstr(*instr)
	if err != nil {
		fatal(fmt.Errorf("-instr: %w", err))
	}
	modelList, err := parseModels(*models)
	if err != nil {
		fatal(err)
	}
	opt := difftest.Options{Budget: budget, Models: modelList, PhysRegs: *prf}
	if *corrupt > 0 {
		opt.Faults = faults.Config{Seed: *faultseed, ValueCorruptRate: *corrupt}
	}
	presets := progen.Presets()
	if *preset != "all" {
		k, ok := progen.PresetByName(*preset)
		if !ok {
			fatal(fmt.Errorf("-preset %s: unknown (have %s, all)", *preset, strings.Join(progen.PresetNames(), ", ")))
		}
		presets = []progen.Preset{{Name: *preset, Knobs: k}}
	}

	// The sweep: one slot per seed, filled by the shared worker pool.
	// Writers only touch their own slot, so output is independent of
	// scheduling; divergences and infrastructure errors are collected
	// under a lock (order does not matter — any one fails the sweep).
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	lines := make([][]string, *seeds)
	var mu sync.Mutex
	var divs []*difftest.Divergence
	var infra []error
	started := sched.PoolCtx(ctx, *jobs, *seeds, func(i int) {
		s := *seed + uint64(i)
		p := presets[int(s)%len(presets)]
		ls, div, err := difftest.RunSeed(s, p.Name, p.Knobs, opt)
		switch {
		case err != nil:
			mu.Lock()
			infra = append(infra, err)
			mu.Unlock()
		case div != nil:
			mu.Lock()
			divs = append(divs, div)
			mu.Unlock()
		default:
			lines[i] = ls
		}
	})

	for _, err := range infra {
		fmt.Fprintln(os.Stderr, "difftest: generator/trace failure:", err)
	}

	if len(divs) > 0 {
		fmt.Fprintf(os.Stderr, "difftest: %d divergence(s) in %d seeds\n", len(divs), *seeds)
		d := divs[0]
		fmt.Fprint(os.Stderr, d.Bundle())
		if *minimize {
			r := d.Minimize(opt)
			path, err := writeRepro(*outDir, d, r)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "difftest: minimized to %d static instructions (%d trials), repro written to %s\n",
				r.Static, r.Trials, path)
			fmt.Fprintf(os.Stderr, "difftest: rerun with: difftest -seed %d -seeds 1 -preset %s -instr %d\n",
				d.Seed, d.Preset, budget)
		}
		os.Exit(1)
	}
	if len(infra) > 0 {
		os.Exit(1)
	}

	// A timed-out sweep still summarizes what ran, but claims no
	// aggregate digest: the digest is only meaningful (and comparable
	// across hosts and -j widths) over the full seed range.
	if started < *seeds {
		completed := 0
		for _, ls := range lines {
			if ls != nil {
				completed++
			}
		}
		fmt.Printf("difftest: PARTIAL sweep (-timeout %s): %d of %d seeds completed clean, %d never started; no aggregate digest for a partial range\n",
			*timeout, completed, *seeds, *seeds-started)
		os.Exit(1)
	}

	h := sha256.New()
	runs := 0
	for _, ls := range lines {
		for _, l := range ls {
			if *verbose {
				fmt.Println(l)
			}
			fmt.Fprintln(h, l)
			runs++
		}
	}
	nModels := len(opt.Models)
	if nModels == 0 {
		nModels = len(config.Models)
	}
	fmt.Printf("difftest: %d seeds x %d models clean, %d lockstep runs, digest %x\n",
		*seeds, nModels, runs, h.Sum(nil)[:8])
}

func parseModels(s string) ([]config.Model, error) {
	if s == "" {
		return nil, nil
	}
	var out []config.Model
	for _, name := range strings.Split(s, ",") {
		m, err := config.ParseModel(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("-models: %w", err)
		}
		out = append(out, m)
	}
	return out, nil
}

func writeRepro(dir string, d *difftest.Divergence, r *difftest.Repro) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("seed%d-%s-%s.s", d.Seed, d.Preset, d.Model))
	return path, os.WriteFile(path, []byte(d.ReproFile(r)), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "difftest:", err)
	os.Exit(1)
}
