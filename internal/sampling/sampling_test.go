package sampling

import (
	"context"
	"math"
	"testing"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/trace"
	"dmdp/internal/workload"
)

// Run simulates every interval of the plan under cfg, serially and from
// the trace itself, and combines the results by weight: the reference
// RunPlan path these tests compare against.
func Run(tr *trace.Trace, cfg config.Config, plan Plan) (*Combined, error) {
	src, err := NewTraceSource(tr, plan, nil)
	if err != nil {
		return nil, err
	}
	return RunPlan(context.Background(), cfg, plan, src, 1)
}

func buildTrace(t *testing.T, bench string, n int64) *trace.Trace {
	t.Helper()
	s, ok := workload.Get(bench)
	if !ok {
		t.Fatalf("unknown bench %s", bench)
	}
	tr, err := s.BuildTrace(n)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestUniformPlan(t *testing.T) {
	p, err := Uniform(100_000, 5_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Intervals) != 4 {
		t.Fatalf("intervals %d", len(p.Intervals))
	}
	var w float64
	for i, iv := range p.Intervals {
		if iv.End-iv.Start != 5000 {
			t.Fatalf("interval %d length %d", i, iv.End-iv.Start)
		}
		if iv.End > 100_000 {
			t.Fatalf("interval %d out of range", i)
		}
		w += iv.Weight
	}
	if math.Abs(w-1) > 1e-12 {
		t.Fatalf("weights sum to %f", w)
	}
}

func TestUniformPlanErrors(t *testing.T) {
	if _, err := Uniform(0, 10, 1); err == nil {
		t.Error("zero trace length must fail")
	}
	if _, err := Uniform(100, 60, 2); err == nil {
		t.Error("oversubscribed plan must fail")
	}
	if _, err := Uniform(100, 10, 0); err == nil {
		t.Error("zero count must fail")
	}
}

func TestSliceRollsMemoryForward(t *testing.T) {
	tr := buildTrace(t, "perl", 20_000)
	sub, err := Slice(tr, Interval{Start: 10_000, End: 12_000, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Entries) != 2000 {
		t.Fatalf("slice length %d", len(sub.Entries))
	}
	// The slice must be runnable and sound: the core's internal value
	// check fails if the rolled-forward image were wrong.
	c, err := core.New(config.Default(config.DMDP), sub)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 2000 {
		t.Fatalf("retired %d", st.Instructions)
	}
}

func TestSliceBounds(t *testing.T) {
	tr := buildTrace(t, "perl", 5_000)
	bad := []Interval{
		{Start: -1, End: 10},
		{Start: 0, End: 6000},
		{Start: 100, End: 100},
		{Start: 200, End: 100},
	}
	for i, iv := range bad {
		if _, err := Slice(tr, iv); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRunCombinesWeights(t *testing.T) {
	tr := buildTrace(t, "gcc", 30_000)
	plan, err := Uniform(len(tr.Entries), 3_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	comb, err := Run(tr, config.Default(config.DMDP), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(comb.Results) != 3 {
		t.Fatalf("results %d", len(comb.Results))
	}
	if comb.TotalInstructions != 9000 {
		t.Fatalf("instructions %d", comb.TotalInstructions)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range comb.Results {
		ipc := r.Stats.IPC()
		lo, hi = math.Min(lo, ipc), math.Max(hi, ipc)
	}
	if comb.WeightedIPC < lo-1e-9 || comb.WeightedIPC > hi+1e-9 {
		t.Fatalf("weighted IPC %f outside [%f,%f]", comb.WeightedIPC, lo, hi)
	}
}

// TestSamplingConvergesWithIntervalLength: each interval starts cold
// (empty caches and predictors — the paper's checkpoints behave the same,
// §V, which is why it uses 100M-instruction intervals). Longer intervals
// must therefore estimate the full-simulation IPC strictly better than
// very short ones.
func TestSamplingConvergesWithIntervalLength(t *testing.T) {
	tr := buildTrace(t, "sjeng", 60_000)
	full, err := core.New(config.Default(config.DMDP), tr)
	if err != nil {
		t.Fatal(err)
	}
	fst, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	estimate := func(intervalLen, count int) float64 {
		plan, err := Uniform(len(tr.Entries), intervalLen, count)
		if err != nil {
			t.Fatal(err)
		}
		comb, err := Run(tr, config.Default(config.DMDP), plan)
		if err != nil {
			t.Fatal(err)
		}
		return comb.WeightedIPC
	}
	short := estimate(1_000, 3)
	long := estimate(18_000, 3)
	errShort := math.Abs(short/fst.IPC() - 1)
	errLong := math.Abs(long/fst.IPC() - 1)
	if errLong >= errShort {
		t.Fatalf("longer intervals should converge: short err %.3f, long err %.3f (full %.3f, short %.3f, long %.3f)",
			errShort, errLong, fst.IPC(), short, long)
	}
	if errLong > 0.5 {
		t.Fatalf("18k-instruction intervals still %.0f%% off the full run", 100*errLong)
	}
}

func TestRunEmptyPlan(t *testing.T) {
	tr := buildTrace(t, "perl", 2_000)
	if _, err := Run(tr, config.Default(config.DMDP), Plan{}); err == nil {
		t.Fatal("empty plan must fail")
	}
}

// TestWarmupImprovesShortIntervals: with explicit warmup, short intervals
// approximate the full run much better than cold-start ones.
func TestWarmupImprovesShortIntervals(t *testing.T) {
	tr := buildTrace(t, "sjeng", 60_000)
	full, err := core.New(config.Default(config.DMDP), tr)
	if err != nil {
		t.Fatal(err)
	}
	fst, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Uniform(len(tr.Entries), 2_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(tr, config.Default(config.DMDP), plan)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(tr, config.Default(config.DMDP), plan.WithWarmup(6_000))
	if err != nil {
		t.Fatal(err)
	}
	errCold := math.Abs(cold.WeightedIPC/fst.IPC() - 1)
	errWarm := math.Abs(warm.WeightedIPC/fst.IPC() - 1)
	if errWarm >= errCold {
		t.Fatalf("warmup should improve the estimate: cold err %.3f, warm err %.3f (full %.3f cold %.3f warm %.3f)",
			errCold, errWarm, fst.IPC(), cold.WeightedIPC, warm.WeightedIPC)
	}
	if errWarm > 0.4 {
		t.Fatalf("warmed short intervals still %.0f%% off", 100*errWarm)
	}
}
