package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/workload"
)

const (
	e2eBudget = 4000
)

var e2eBenches = []string{"perl", "hmmer", "milc", "wrf"}

// renderSuite renders every experiment through a fresh runner backed by
// the given store and returns per-experiment output plus the failure
// table — exactly what cmd/experiments prints to stdout.
func renderSuite(t *testing.T, store *artifact.Store) (map[string]string, string, *Runner) {
	t.Helper()
	r := NewRunner(Options{
		Budget:     e2eBudget,
		Benchmarks: e2eBenches,
		Parallel:   false,
		Cache:      store,
	})
	if err := r.WarmUp(All()...); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	out := make(map[string]string, len(All()))
	for _, e := range All() {
		s, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out[e.ID] = s
	}
	return out, r.FailureTable(), r
}

func openStore(t *testing.T, dir string, mode artifact.Mode) *artifact.Store {
	t.Helper()
	s, err := artifact.Open(dir, mode, artifact.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func diffSuites(t *testing.T, what string, want, got map[string]string) {
	t.Helper()
	for _, e := range All() {
		if want[e.ID] != got[e.ID] {
			t.Errorf("%s: %s output differs\n--- want ---\n%s\n--- got ---\n%s",
				e.ID, what, want[e.ID], got[e.ID])
		}
	}
}

// TestSuiteByteIdenticalAcrossCacheModes is the acceptance oracle for
// the artifact cache: the rendered suite must be byte-identical with
// the cache off, on a cold read-write cache, on the warm cache it just
// populated, and in verify mode over the same warm cache. The warm run
// must come entirely from the result store (zero simulations).
func TestSuiteByteIdenticalAcrossCacheModes(t *testing.T) {
	off, offFail, _ := renderSuite(t, nil)

	dir := t.TempDir()
	cold, coldFail, _ := renderSuite(t, openStore(t, dir, artifact.RW))
	diffSuites(t, "cold-cache", off, cold)
	if offFail != coldFail {
		t.Errorf("failure table differs off vs cold:\n%s\n---\n%s", offFail, coldFail)
	}

	warmStore := openStore(t, dir, artifact.RW)
	warm, warmFail, warmRunner := renderSuite(t, warmStore)
	diffSuites(t, "warm-cache", off, warm)
	if offFail != warmFail {
		t.Errorf("failure table differs off vs warm:\n%s\n---\n%s", offFail, warmFail)
	}
	if n := warmRunner.sims.Load(); n != 0 {
		t.Errorf("warm run simulated %d times; every result should hit the store", n)
	}
	c := warmStore.Counters()
	if c.ResultHits == 0 || c.ResultMisses != 0 {
		t.Errorf("warm counters: hits=%d misses=%d; want all hits", c.ResultHits, c.ResultMisses)
	}

	verify, verifyFail, _ := renderSuite(t, openStore(t, dir, artifact.Verify))
	diffSuites(t, "verify-mode", off, verify)
	if offFail != verifyFail {
		t.Errorf("failure table differs off vs verify:\n%s\n---\n%s", offFail, verifyFail)
	}
}

// TestCorruptCacheDegradesToMisses truncates every entry of a warm
// cache and re-renders: corruption must read as misses (entries dropped
// and rewritten), never as wrong results or a failed run.
func TestCorruptCacheDegradesToMisses(t *testing.T) {
	dir := t.TempDir()
	want, wantFail, _ := renderSuite(t, openStore(t, dir, artifact.RW))

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("cold run populated nothing")
	}
	for _, e := range ents {
		p := filepath.Join(dir, e.Name())
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(p, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
	}

	store := openStore(t, dir, artifact.RW)
	got, gotFail, _ := renderSuite(t, store)
	diffSuites(t, "post-corruption", want, got)
	if wantFail != gotFail {
		t.Errorf("failure table differs after corruption:\n%s\n---\n%s", wantFail, gotFail)
	}
	c := store.Counters()
	if c.CorruptDropped == 0 {
		t.Error("no corrupt entries dropped; truncation was not detected")
	}
	if c.ResultHits != 0 || c.TraceHits != 0 {
		t.Errorf("truncated entries hit: trace=%d result=%d", c.TraceHits, c.ResultHits)
	}
}

// TestVerifyDetectsPoisonedResult overwrites one result entry with a
// well-formed encoding of the wrong stats (valid CRC, valid schema —
// only the payload lies) and requires -cache verify to fail that run
// with a structured *artifact.VerifyError naming the first differing
// field, while plain warm mode would have trusted it.
func TestVerifyDetectsPoisonedResult(t *testing.T) {
	dir := t.TempDir()
	rw := openStore(t, dir, artifact.RW)
	r := NewRunner(Options{Budget: e2eBudget, Benchmarks: e2eBenches, Cache: rw})
	honest, err := r.RunModel("perl", config.DMDP)
	if err != nil {
		t.Fatal(err)
	}

	spec, ok := workload.Get("perl")
	if !ok {
		t.Fatal("perl workload missing")
	}
	cfg := config.Default(config.DMDP)
	key := artifact.ResultKey(
		artifact.TraceKey(spec.SourceHash(), e2eBudget), cfg.Digest(), e2eBudget)
	poisoned := *honest
	poisoned.Cycles += 1_000_000
	rw.StoreStats(key, &poisoned)

	// A plain warm run trusts the poison — that is the gap verify closes.
	trusting := NewRunner(Options{Budget: e2eBudget, Benchmarks: e2eBenches,
		Cache: openStore(t, dir, artifact.RW)})
	st, err := trusting.RunModel("perl", config.DMDP)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != poisoned.Cycles {
		t.Fatalf("expected the warm run to return the poisoned entry, got cycles=%d", st.Cycles)
	}

	vr := NewRunner(Options{Budget: e2eBudget, Benchmarks: e2eBenches,
		Cache: openStore(t, dir, artifact.Verify)})
	_, err = vr.RunModel("perl", config.DMDP)
	if err == nil {
		t.Fatal("verify mode accepted a poisoned result entry")
	}
	var verr *artifact.VerifyError
	if !errors.As(err, &verr) {
		t.Fatalf("want *artifact.VerifyError, got %T: %v", err, err)
	}
	if verr.Bench != "perl" || verr.Key != key {
		t.Errorf("verify error misattributed: %+v", verr)
	}
	fails := vr.Failures()
	if len(fails) != 1 || fails[0].Diagnostic == "" {
		t.Errorf("verify failure not recorded with a diagnostic: %+v", fails)
	}
}

// TestVerifyDetectsStaleTrace plants a valid trace built at another
// budget under gcc's trace key: every check a load makes passes, only
// the content is stale. A plain render trusts it, so the results it
// stores come from the stale trace, and re-simulating them from the
// same trace would match. Verify mode must rebuild the trace itself and
// fail the run with a *artifact.VerifyError naming the trace entry.
func TestVerifyDetectsStaleTrace(t *testing.T) {
	dir := t.TempDir()
	spec, ok := workload.Get("gcc")
	if !ok {
		t.Fatal("gcc workload missing")
	}
	stale, err := spec.BuildTrace(e2eBudget / 2)
	if err != nil {
		t.Fatal(err)
	}
	key := artifact.TraceKey(spec.SourceHash(), e2eBudget)
	openStore(t, dir, artifact.RW).StoreTrace(key, stale)

	render := func(mode artifact.Mode) (string, *Runner, error) {
		r := NewRunner(Options{Budget: e2eBudget, Benchmarks: []string{"gcc"},
			Cache: openStore(t, dir, mode)})
		e, _ := ByID("fig12")
		err := r.WarmUp(e)
		out, _ := e.Run(r)
		return out, r, err
	}
	if _, r, err := render(artifact.RW); err != nil || r.Sims() == 0 {
		t.Fatalf("rw render over the stale trace: %v after %d simulations", err, r.Sims())
	}
	_, vr, err := render(artifact.Verify)
	if err == nil {
		t.Fatal("verify mode accepted a stale trace entry")
	}
	fails := vr.Failures()
	if len(fails) == 0 {
		t.Fatal("verify failure not recorded")
	}
	for _, f := range fails {
		var verr *artifact.VerifyError
		if !errors.As(f.Err, &verr) || verr.Bench != "gcc" || verr.Label != "trace" || verr.Key != key || f.Diagnostic == "" {
			t.Errorf("failure %s/%s: want a trace *artifact.VerifyError with a diagnostic, got %v", f.Bench, f.Label, f.Err)
		}
	}
}
