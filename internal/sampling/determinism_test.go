package sampling

import (
	"bytes"
	"context"
	"testing"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/emu"
	"dmdp/internal/trace"
	"dmdp/internal/workload"
)

// sliceSource is the roll-forward reference: every interval is extracted
// with the legacy Slice (O(Start) image replay per interval), no
// checkpoints anywhere, no warming.
type sliceSource struct {
	tr   *trace.Trace
	plan Plan
	*warmCollector
}

func (s sliceSource) IntervalTrace(i int) (*trace.Trace, int, error) {
	begin, warm := beginOf(s.plan, i)
	sub, err := Slice(s.tr, Interval{Start: begin, End: s.plan.Intervals[i].End})
	return sub, warm, err
}

// TestCheckpointRestoreBitIdenticalAllProxies is the full determinism
// sweep: for every proxy benchmark and every model, intervals restored
// from the architectural checkpoints a profiling pass persisted must
// produce combined statistics byte-identical to the legacy roll-forward
// Slice path, serially and at -j8. This is the contract that lets
// checkpointed sampling replace roll-forward wholesale: faster, never
// different.
func TestCheckpointRestoreBitIdenticalAllProxies(t *testing.T) {
	const (
		budget      = 24_000
		intervalLen = 1_200
		count       = 3
		warmup      = 240
	)
	store, err := artifact.Open(t.TempDir(), artifact.RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	chunkLen := autoChunkLen(budget)
	models := []config.Model{config.Baseline, config.NoSQ, config.DMDP, config.Perfect, config.FnF}
	ctx := context.Background()
	for _, name := range workload.Names() {
		s, ok := workload.Get(name)
		if !ok {
			t.Fatalf("unknown proxy %s", name)
		}
		prog, err := s.Program()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := emu.Run(prog, budget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plan, err := Uniform(len(tr.Entries), intervalLen, count)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plan.Warmup = warmup
		key := artifact.TraceKey(s.SourceHash(), budget)

		// The profiling pass publishes a checkpoint at every chunk
		// boundary; the reopened stream holds none in memory, so every
		// interval restores from the store.
		built, err := BuildStream(ctx, prog, budget, chunkLen, store, key, true, nil)
		if err != nil {
			t.Fatalf("%s stream: %v", name, err)
		}
		restored := OpenStream(prog, chunkLen, built.Total, built.HitHalt, store, key, nil).Source(plan)
		ref := sliceSource{tr: tr, plan: plan}

		// Interval extraction must agree entry for entry before any
		// simulation: a checkpoint restore is just a faster roll-forward.
		hits := store.Counters().CheckpointHits
		for i := range plan.Intervals {
			a, warmA, err := ref.IntervalTrace(i)
			if err != nil {
				t.Fatalf("%s slice %d: %v", name, i, err)
			}
			b, warmB, err := restored.IntervalTrace(i)
			if err != nil {
				t.Fatalf("%s restore %d: %v", name, i, err)
			}
			if warmA != warmB || len(a.Entries) != len(b.Entries) {
				t.Fatalf("%s interval %d shape: warm %d/%d len %d/%d",
					name, i, warmA, warmB, len(a.Entries), len(b.Entries))
			}
			for j := range a.Entries {
				if a.Entries[j] != b.Entries[j] {
					t.Fatalf("%s interval %d entry %d differs between Slice and checkpoint restore",
						name, i, j)
				}
			}
		}
		if got := store.Counters().CheckpointHits - hits; got != int64(len(plan.Intervals)) {
			t.Fatalf("%s: %d of %d intervals restored from a stored checkpoint", name, got, len(plan.Intervals))
		}

		for _, m := range models {
			cfg := config.Default(m)
			want, err := RunPlan(ctx, cfg, plan, ref, 1)
			if err != nil {
				t.Fatalf("%s/%s slice run: %v", name, m, err)
			}
			enc := want.MarshalCanonical()
			for _, jobs := range []int{1, 8} {
				got, err := RunPlan(ctx, cfg, plan, restored, jobs)
				if err != nil {
					t.Fatalf("%s/%s -j%d: %v", name, m, jobs, err)
				}
				if !bytes.Equal(enc, got.MarshalCanonical()) {
					t.Fatalf("%s/%s: checkpoint-restored -j%d result differs from roll-forward Slice",
						name, m, jobs)
				}
			}
		}
	}
}
