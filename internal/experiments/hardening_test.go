package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/faults"
)

// poisonedRunner makes hmmer's default DMDP machine fail: a run with
// value corruption enabled produces a genuine oracle failure (with
// diagnostics), and its cached result is then aliased onto the
// default DMDP digest. Results are keyed by machine digest, so the
// faulted config alone would (correctly) never be consulted by the
// experiments — these tests exercise failure isolation regardless of how
// the default machine came to fail.
func poisonedRunner(t *testing.T) *Runner {
	t.Helper()
	r := NewRunner(Options{
		Budget:     4000,
		Benchmarks: []string{"hmmer", "bzip2"},
		Parallel:   false,
	})
	cfg := config.Default(config.DMDP).WithFaults(faults.Config{Seed: 5, ValueCorruptRate: 0.01})
	if _, err := r.Run("hmmer", cfg, "dmdp"); err == nil {
		t.Fatal("poisoned run unexpectedly succeeded")
	}
	def := config.Default(config.DMDP)
	r.mu.Lock()
	src := r.calls[runKey{bench: "hmmer", digest: cfg.Digest(), budget: r.opt.Budget}]
	r.calls[runKey{bench: "hmmer", digest: def.Digest(), budget: r.opt.Budget}] = &runCall{res: src.res, err: src.err}
	r.mu.Unlock()
	return r
}

// hasRow reports whether a table has a data row for the benchmark.
func hasRow(table, bench string) bool {
	for _, line := range strings.Split(table, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), bench) {
			return true
		}
	}
	return false
}

// One corrupted benchmark must not sink the suite: its rows drop out,
// the other benchmarks still render, and the failure table names it.
func TestExperimentsSurvivePoisonedBenchmark(t *testing.T) {
	r := poisonedRunner(t)
	// Simulations are deterministic: the failing run simulated once.
	if n := r.Sims(); n != 1 {
		t.Errorf("failing run simulated %d times, want 1", n)
	}

	out, err := TableVI(r)
	if err != nil {
		t.Fatalf("TableVI aborted instead of degrading: %v", err)
	}
	// The footnote quotes the paper's hmmer figures as static text, so
	// look for a data row (line starting with the benchmark name).
	if hasRow(out, "hmmer") {
		t.Errorf("poisoned benchmark still has a row:\n%s", out)
	}
	if !hasRow(out, "bzip2") {
		t.Errorf("healthy benchmark lost its row:\n%s", out)
	}

	fs := r.Failures()
	if len(fs) != 1 {
		t.Fatalf("%d failures recorded, want 1: %+v", len(fs), fs)
	}
	f := fs[0]
	if f.Bench != "hmmer" || f.Label != "dmdp" {
		t.Errorf("failure misattributed: %+v", f)
	}
	var se *core.SimError
	if !errors.As(f.Err, &se) || se.Kind != core.ErrOracle {
		t.Errorf("failure does not carry the oracle SimError: %v", f.Err)
	}
	if f.Diagnostic == "" || !strings.Contains(f.Diagnostic, "last") {
		t.Errorf("diagnostic bundle missing or truncated: %q", f.Diagnostic)
	}

	table := r.FailureTable()
	for _, want := range []string{"hmmer", "dmdp", "oracle"} {
		if !strings.Contains(table, want) {
			t.Errorf("failure table missing %q:\n%s", want, table)
		}
	}

	// Every other render degrades the same way: no render aborts, the
	// healthy benchmark keeps its row, and the poisoned one loses its
	// row exactly where the render reads the broken run. Runs compare by
	// key: a 2-core DMDP machine is not the broken single-core run.
	broken := r.key(RunSpec{Bench: "hmmer", Cfg: config.Default(config.DMDP)})
	for _, e := range All() {
		out, err := e.Run(r)
		if err != nil {
			t.Errorf("%s aborted instead of degrading: %v", e.ID, err)
			continue
		}
		if e.ID == "alt-prf160" {
			continue // summary-only output
		}
		readsBroken := false
		for _, s := range e.Runs(r) {
			readsBroken = readsBroken || r.key(s) == broken
		}
		if hasRow(out, "hmmer") == readsBroken {
			t.Errorf("%s: hmmer row present=%t, but the render reads the broken machine=%t:\n%s",
				e.ID, !readsBroken, readsBroken, out)
		}
		if !hasRow(out, "bzip2") {
			t.Errorf("%s: healthy benchmark lost its row:\n%s", e.ID, out)
		}
	}
	// Other labels for the same run (dmdp-sb32, dmdp-prf320) read the
	// one recorded failure and add no row; nothing else fails.
	if fs := r.Failures(); len(fs) != 1 {
		t.Errorf("%d failure rows after rendering every experiment, want 1: %+v", len(fs), fs)
	}
}

// The negative cache must return the same failure without re-simulating
// and must not duplicate the failure record.
func TestFailureNegativelyCached(t *testing.T) {
	r := poisonedRunner(t)
	sims := r.sims.Load()
	_, err1 := r.RunModel("hmmer", config.DMDP)
	_, err2 := r.RunModel("hmmer", config.DMDP)
	if err1 == nil || err2 == nil {
		t.Fatal("cached failure must keep failing")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("cached failure changed: %v vs %v", err1, err2)
	}
	if got := r.sims.Load(); got != sims {
		t.Fatalf("cached failure re-simulated: %d runs, had %d", got, sims)
	}
	if n := len(r.Failures()); n != 1 {
		t.Fatalf("failure recorded %d times, want 1", n)
	}
}

// Prefetch records failures and keeps warming the rest of the suite,
// surfacing an aggregate error count instead of aborting on the first
// broken run.
func TestPrefetchTolerantOfFailures(t *testing.T) {
	r := poisonedRunner(t)
	err := r.Prefetch()
	if err == nil {
		t.Fatal("prefetch over a failing run must surface an aggregate error")
	}
	if !strings.Contains(err.Error(), "1 of") {
		t.Fatalf("aggregate error lacks the failure count: %v", err)
	}
	if len(r.Failures()) != 1 {
		t.Fatalf("failures after prefetch: %+v", r.Failures())
	}
	// The healthy benchmark's default runs are all warm and usable.
	if _, err := r.RunModel("bzip2", config.DMDP); err != nil {
		t.Fatalf("healthy benchmark unusable after prefetch: %v", err)
	}
}

// A panicking simulation is converted into a recorded failure with a
// trimmed stack, not a crashed suite.
func TestPanicConvertedToFailure(t *testing.T) {
	r := NewRunner(Options{
		Budget:     4000,
		Benchmarks: []string{"hmmer"},
		Parallel:   false,
	})
	// An invalid configuration that slips past Validate: a zero-size
	// T-SSBF makes the core's modulo indexing panic.
	cfg := config.Default(config.DMDP)
	cfg.TSSBF.Sets = 0
	_, err := r.Run("hmmer", cfg, "dmdp-broken")
	if err == nil {
		t.Skip("configuration no longer panics; pick another panic source")
	}
	fs := r.Failures()
	if len(fs) != 1 {
		t.Fatalf("%d failures, want 1", len(fs))
	}
	if !fs[0].Panicked {
		t.Errorf("panic not flagged: %+v", fs[0])
	}
	if !strings.Contains(fs[0].Err.Error(), "panic:") {
		t.Errorf("error does not carry the panic: %v", fs[0].Err)
	}
}

// A failed multicore machine reaches the failure table under its
// spec's label, as a failed single-core run does, and so does a machine
// whose trace could not be built. A machine cancelled before it starts
// carries the bare context error and no diagnostic bundle.
func TestMachineFailuresRecorded(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(Options{Budget: 50_000, Benchmarks: []string{"hmmer"}, Parallel: false, Context: ctx})
	if _, err := r.Trace("hmmer"); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, ok := r.read("hmmer", []RunSpec{mcSpec(config.DMDP, 2)}); ok {
		t.Fatal("machine under a cancelled context returned stats")
	}
	if _, ok := r.read("nosuch", []RunSpec{mcSpec(config.Baseline, 4)}); ok {
		t.Fatal("machine over an unknown benchmark returned stats")
	}
	fs := r.Failures()
	if len(fs) != 2 {
		t.Fatalf("%d failures recorded, want 2: %+v", len(fs), fs)
	}
	if f := fs[0]; f.Bench != "hmmer" || f.Label != "dmdp-2c" || !IsCanceled(f.Err) || f.Diagnostic != "" {
		t.Errorf("cancelled machine recorded as %+v", f)
	}
	if f := fs[1]; f.Bench != "nosuch" || f.Label != "baseline-4c" {
		t.Errorf("failed trace build recorded as %+v", f)
	}
}
