package dmdp

import (
	"context"
	"testing"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/sampling"
	"dmdp/internal/workload"
)

// The checkpoint-vs-roll-forward pair below measures interval extraction
// for a whole sampling plan. Roll-forward pays O(interval start)
// memory-image replay per interval over a materialized trace; a stream
// reopened over a warm checkpoint store restores each interval from its
// nearest persisted checkpoint and re-emulates at most one chunk.
// The gap is the reason checkpointed sampling scales to 100M+ budgets
// (BENCH_0005.json records the baseline; DESIGN.md §12 has the scheme).

const (
	samplingBenchBudget = 2_000_000
	samplingIntervalLen = 1_000
	samplingCount       = 8
	samplingWarmup      = 250
)

func samplingBenchSetup(b *testing.B) (*Trace, sampling.Plan, artifact.Key) {
	b.Helper()
	spec, ok := workload.Get("gcc")
	if !ok {
		b.Fatal("gcc proxy missing")
	}
	tr, err := spec.BuildTrace(samplingBenchBudget)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sampling.Uniform(len(tr.Entries), samplingIntervalLen, samplingCount)
	if err != nil {
		b.Fatal(err)
	}
	return tr, plan.WithWarmup(samplingWarmup), artifact.TraceKey(spec.SourceHash(), samplingBenchBudget)
}

// BenchmarkRollForwardSlice: every interval begin is reached by replaying
// the memory image from entry 0 — the legacy Slice path.
func BenchmarkRollForwardSlice(b *testing.B) {
	tr, plan, _ := samplingBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampling.NewTraceSource(tr, plan, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// The cold/warm Execute pair times the whole sampled pipeline on the
// streaming path — profiling pass, planning, interval simulation — with
// functional warming off and on. The warming overhead rides the
// profiling pass (tag-only updates at tens of Mentries/s) plus one
// delta snapshot per checkpoint; BENCH_0006.json records the baseline
// and the 100M-budget sampled-vs-full wall-clock gap.

func benchmarkSampledExecute(b *testing.B, warm bool) {
	spec, ok := workload.Get("gcc")
	if !ok {
		b.Fatal("gcc proxy missing")
	}
	prog, err := spec.Program()
	if err != nil {
		b.Fatal(err)
	}
	req := sampling.Request{
		Spec:     sampling.Spec{Count: samplingCount, Len: samplingIntervalLen, Warmup: samplingWarmup},
		Budget:   samplingBenchBudget,
		Jobs:     1,
		TraceKey: artifact.TraceKey(spec.SourceHash(), samplingBenchBudget),
		Prog:     prog,
		Warm:     warm,
	}
	cfg := config.Default(config.DMDP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampling.Execute(context.Background(), cfg, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampledExecuteCold(b *testing.B) { benchmarkSampledExecute(b, false) }
func BenchmarkSampledExecuteWarm(b *testing.B) { benchmarkSampledExecute(b, true) }

// BenchmarkCheckpointRestore: identical extraction from a stream reopened
// over a warm checkpoint store — each interval resumes from its nearest
// architectural checkpoint instead of replaying the prefix.
func BenchmarkCheckpointRestore(b *testing.B) {
	tr, plan, key := samplingBenchSetup(b)
	store, err := artifact.Open(b.TempDir(), artifact.RW, 0)
	if err != nil {
		b.Fatal(err)
	}
	chunkLen := samplingBenchBudget / 100 // Execute's spacing at this budget
	// The profiling pass publishes the checkpoints the timed passes restore.
	built, err := sampling.BuildStream(context.Background(), tr.Prog, samplingBenchBudget, chunkLen, store, key, true, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := sampling.OpenStream(tr.Prog, chunkLen, built.Total, built.HitHalt, store, key, nil).Source(plan)
		for j := range plan.Intervals {
			if _, _, err := src.IntervalTrace(j); err != nil {
				b.Fatal(err)
			}
		}
	}
}
