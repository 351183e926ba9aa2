package sampling

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/warm"
)

// TestWarmStreamMatchesMaterialized is the functional-warming
// equivalence oracle: the streamed path's snapshot-restore-continue
// warm state must install byte-identically to the materialized path's
// continuous rolling pass, so the combined stats match exactly.
func TestWarmStreamMatchesMaterialized(t *testing.T) {
	cfg := config.Default(config.DMDP)
	spec := Spec{Count: 4, Len: 2_000, Warmup: 500}
	mat, str := execRequest(t, "gcc", 50_000)
	mat.Spec, str.Spec = spec, spec
	mat.Warm, str.Warm = true, true

	a, err := Execute(context.Background(), cfg, mat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(context.Background(), cfg, str)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []*Outcome{a, b} {
		if !o.Warmed {
			t.Fatal("outcome not marked warmed")
		}
		if o.ColdStartIntervals != 0 {
			t.Fatalf("%d cold-start intervals with everything available", o.ColdStartIntervals)
		}
		if o.WarmedIntervals != int64(len(o.Plan.Intervals)) {
			t.Fatalf("warmed %d of %d intervals", o.WarmedIntervals, len(o.Plan.Intervals))
		}
		if o.WarmSnapshotBytes == 0 {
			t.Fatal("no warm snapshot bytes accounted")
		}
	}
	if !bytes.Equal(a.Combined.MarshalCanonical(), b.Combined.MarshalCanonical()) {
		t.Fatalf("warmed streamed result differs from materialized:\nmat IPC %f\nstr IPC %f",
			a.Combined.WeightedIPC, b.Combined.WeightedIPC)
	}
}

// TestWarmChangesSampledResult pins that warming actually installs
// state with observable effect — guarding against a silent no-op
// install (e.g. a broken transplant that leaves the core cold).
func TestWarmChangesSampledResult(t *testing.T) {
	cfg := config.Default(config.DMDP)
	// No detailed warmup: every cold interval then starts from empty
	// caches, so installing warm state must move IPC.
	spec := Spec{Count: 4, Len: 2_000}
	_, cold := execRequest(t, "mcf", 50_000)
	cold.Spec = spec
	warmReq := cold
	warmReq.Warm = true

	a, err := Execute(context.Background(), cfg, cold)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(context.Background(), cfg, warmReq)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Combined.MarshalCanonical(), b.Combined.MarshalCanonical()) {
		t.Fatal("warming had no effect on a cache-sensitive workload with zero warmup")
	}
}

// TestWarmParallelByteIdentical: the -j determinism contract holds with
// warming on.
func TestWarmParallelByteIdentical(t *testing.T) {
	cfg := config.Default(config.DMDP)
	spec := Spec{Count: 6, Len: 1_500, Warmup: 300}
	_, str := execRequest(t, "mcf", 40_000)
	str.Spec, str.Warm = spec, true
	var ref []byte
	for _, jobs := range []int{1, 2, 8} {
		req := str
		req.Jobs = jobs
		out, err := Execute(context.Background(), cfg, req)
		if err != nil {
			t.Fatal(err)
		}
		enc := out.Combined.MarshalCanonical()
		if ref == nil {
			ref = enc
		} else if !bytes.Equal(ref, enc) {
			t.Fatalf("warmed -j%d result differs from -j1", jobs)
		}
	}
}

// TestWarmArtifactCycle drives warm-state persistence end to end: the
// first warmed checkpointed run publishes plan, checkpoints and
// DMDPCKP2 warm records; the second reuses all three (skipping the
// profiling pass) byte-identically; corrupting the warm records makes
// the plan-cache probe fail and the third run falls back to one fresh
// profiling pass — again byte-identical, never wrong.
func TestWarmArtifactCycle(t *testing.T) {
	dir := t.TempDir()
	store, err := artifact.Open(dir, artifact.RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default(config.DMDP)
	spec := Spec{Auto: true, K: 3, Warmup: 200}
	_, str := execRequest(t, "astar", 40_000)
	str.Spec, str.Checkpoint, str.Store, str.Warm = spec, true, store, true

	first, err := Execute(context.Background(), cfg, str)
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanCached {
		t.Fatal("first run cannot hit the plan cache")
	}
	if !first.Warmed || first.ColdStartIntervals != 0 {
		t.Fatalf("first run warming: %+v", first)
	}
	if first.WarmEntries == 0 || first.WarmNanos == 0 {
		t.Fatal("profiling pass did not account warming work")
	}
	ref := first.Combined.MarshalCanonical()

	warmFiles := 0
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), ".warm") {
			warmFiles++
		}
	}
	if warmFiles == 0 {
		t.Fatal("no warm-state records were persisted")
	}

	second, err := Execute(context.Background(), cfg, str)
	if err != nil {
		t.Fatal(err)
	}
	if !second.PlanCached {
		t.Fatal("second run should reuse the cached plan")
	}
	if second.ColdStartIntervals != 0 {
		t.Fatalf("%d cold starts with persisted warm state", second.ColdStartIntervals)
	}
	if !bytes.Equal(ref, second.Combined.MarshalCanonical()) {
		t.Fatal("store-restored warm run differs from the building run")
	}
	if c := store.Counters(); c.WarmHits == 0 {
		t.Fatalf("second run served no warm records from the store: %+v", c)
	}

	// Corrupt every warm record. The plan-cache probe must notice and
	// re-profile rather than pinning every interval to a cold start.
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), ".warm") {
			path := filepath.Join(dir, de.Name())
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			buf[len(buf)/2] ^= 0xff
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	third, err := Execute(context.Background(), cfg, str)
	if err != nil {
		t.Fatal(err)
	}
	if third.PlanCached {
		t.Fatal("third run trusted a plan whose warm state is corrupt")
	}
	if third.ColdStartIntervals != 0 {
		t.Fatalf("re-profiled run cold-started %d intervals", third.ColdStartIntervals)
	}
	if !bytes.Equal(ref, third.Combined.MarshalCanonical()) {
		t.Fatal("re-profiled (corrupt-warm-record) run differs from the building run")
	}
}

// TestWarmMissingStateColdStarts forces per-interval degradation: warm
// snapshots dropped for every non-zero boundary must cold-start exactly
// the intervals that resume from those boundaries — with a successful
// run and honest accounting, never an error.
func TestWarmMissingStateColdStarts(t *testing.T) {
	cfg := config.Default(config.DMDP)
	_, str := execRequest(t, "gcc", 50_000)
	wc := warm.ConfigFrom(cfg)
	s, err := BuildStream(context.Background(), str.Prog, str.Budget, autoChunkLen(str.Budget),
		nil, str.TraceKey, false, &wc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Uniform(int(s.Total), 2_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan.Warmup = 500

	s.warmMu.Lock()
	for at := range s.warms {
		if at != 0 {
			delete(s.warms, at)
		}
	}
	s.warmMu.Unlock()

	src := s.Source(plan)
	if _, err := RunPlan(context.Background(), cfg, plan, src, 2); err != nil {
		t.Fatal(err)
	}
	warmed, cold, _ := src.warmStats()
	if cold == 0 {
		t.Fatal("no interval cold-started with all non-zero warm snapshots dropped")
	}
	if warmed+cold != int64(len(plan.Intervals)) {
		t.Fatalf("accounting: %d warmed + %d cold != %d intervals", warmed, cold, len(plan.Intervals))
	}
}

// TestWarmDisabledUnderFaults: fault injection forces warming off, like
// fast-forward — a corrupted run must execute every model in full.
func TestWarmDisabledUnderFaults(t *testing.T) {
	cfg := config.Default(config.DMDP)
	cfg.Faults.PredictionFlipRate = 1e-6
	cfg.Faults.Seed = 1
	if !cfg.Faults.Enabled() {
		t.Skip("fault config shape changed; update the test")
	}
	_, str := execRequest(t, "gcc", 30_000)
	str.Spec, str.Warm = Spec{Count: 2, Len: 1_000}, true
	out, err := Execute(context.Background(), cfg, str)
	if err != nil {
		t.Fatal(err)
	}
	if out.Warmed || out.WarmedIntervals != 0 {
		t.Fatalf("warming ran under fault injection: %+v", out)
	}
}
