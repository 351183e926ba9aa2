package experiments

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"dmdp/internal/config"
	"dmdp/internal/trace"
)

// TestCancelledRunNotNegativelyCached: a run cut off by its context
// fails with a structured canceled error, but the negative cache does
// not remember it — the same machine re-simulates and succeeds once the
// pressure is gone. (Deterministic failures, by contrast, stay cached:
// TestFailureNegativelyCached.)
func TestCancelledRunNotNegativelyCached(t *testing.T) {
	r := NewRunner(Options{Budget: 50_000, Benchmarks: []string{"hmmer"}, Parallel: false})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.RunCtx(ctx, "hmmer", config.Default(config.DMDP), "dmdp")
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !IsCanceled(err) {
		t.Fatalf("err=%v, want cancellation", err)
	}
	if n := r.Sims(); n != 0 {
		t.Fatalf("run cancelled before it started simulated %d times", n)
	}
	// The failure row is recorded (partial FailureTable support)...
	if fs := r.Failures(); len(fs) != 1 {
		t.Fatalf("failure rows: %+v", fs)
	}
	// ...but the result cache forgot it: the rerun simulates and succeeds.
	st, err := r.RunModel("hmmer", config.DMDP)
	if err != nil {
		t.Fatalf("rerun after cancellation failed: %v", err)
	}
	if st.Instructions == 0 {
		t.Fatal("rerun produced empty stats")
	}
}

// TestCancelledTraceBuildStructuredError: the emulator polls the
// runner's base context during trace builds, so a canceled runner
// aborts a build mid-way with a structured *trace.BuildCanceled error
// instead of emulating the full budget first — under the old code a
// drained daemon still paid the entire O(budget) emulation. The
// canceled build is evicted from the negative result cache exactly like
// a canceled run.
func TestCancelledTraceBuildStructuredError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(Options{Budget: 200_000, Benchmarks: []string{"gcc"}, Parallel: false, Context: ctx})
	_, err := r.RunCtx(context.Background(), "gcc", config.Default(config.DMDP), "dmdp")
	if err == nil {
		t.Fatal("build under a canceled runner returned nil error")
	}
	var bc *trace.BuildCanceled
	if !errors.As(err, &bc) {
		t.Fatalf("err=%v, want a *trace.BuildCanceled cause", err)
	}
	if bc.Entries >= 200_000 {
		t.Fatalf("build ran to completion (%d entries) despite cancellation", bc.Entries)
	}
	if !IsCanceled(err) {
		t.Fatalf("structured build-cancel error must unwrap to a context error: %v", err)
	}
	r.mu.Lock()
	cached := len(r.calls)
	r.mu.Unlock()
	if cached != 0 {
		t.Fatal("canceled build was negatively cached")
	}
}

// TestWarmUpCancellation: cancelling mid-warm-up stops claiming new
// runs, surfaces an aggregate cancellation error, and leaves the runner
// usable for partial rendering.
func TestWarmUpCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	r := NewRunner(Options{Budget: 300_000, Parallel: true, Jobs: 2, Context: ctx})
	err := r.Prefetch()
	if err == nil {
		t.Skip("host too fast: full prefetch beat the 50ms deadline")
	}
	if !strings.Contains(err.Error(), "cancelled") && !strings.Contains(err.Error(), "failed") {
		t.Fatalf("aggregate error does not mention cancellation: %v", err)
	}
	// The failure table renders (partial results path does not panic).
	_ = r.FailureTable()
}

// TestSampErrRecordsFailedSampledRuns: a samp-err render whose runner
// is cancelled after warming only the full runs reads them from the
// cache, but every sampled run fails. Each row drops out, and the failure
// table says why: the first failed sampled run of each row is recorded
// under "<model>-sampled" or "<model>-sampled+warm", with no diagnostic
// bundle, as for any cancellation.
func TestSampErrRecordsFailedSampledRuns(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(Options{Budget: 20_000, Benchmarks: []string{"hmmer", "mcf"},
		Parallel: false, Context: ctx, SampleWarm: true})
	if err := r.WarmUp(Experiment{Runs: declare(sampErrRuns)}); err != nil {
		t.Fatal(err)
	}
	cancel()
	out, err := SampErr(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range r.Benchmarks() {
		if hasRow(out, b) {
			t.Errorf("%s kept a row after its sampled runs failed:\n%s", b, out)
		}
	}
	var got []string
	for _, f := range r.Failures() {
		got = append(got, f.Bench+"/"+f.Label)
		if !IsCanceled(f.Err) || f.Diagnostic != "" {
			t.Errorf("%s/%s: err %v, diagnostic %q; want a cancellation without a bundle",
				f.Bench, f.Label, f.Err, f.Diagnostic)
		}
	}
	want := []string{"hmmer/baseline-sampled", "hmmer/baseline-sampled+warm",
		"mcf/baseline-sampled", "mcf/baseline-sampled+warm"}
	if !slices.Equal(got, want) {
		t.Errorf("failures %v, want %v", got, want)
	}
}
