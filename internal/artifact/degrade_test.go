package artifact

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmdp/internal/config"
	"dmdp/internal/core"
)

// TestOpenUnusableDirDegradesToReadOnly: pointing -cachedir at a path
// that cannot become a directory (here: an existing regular file) must
// not surface as a run error — Open succeeds, the store is degraded to
// read-only, and both reads and writes are safe no-ops.
func TestOpenUnusableDirDegradesToReadOnly(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(filepath.Join(file, "cache"), RW, 0)
	if err != nil {
		t.Fatalf("Open must degrade, not error: %v", err)
	}
	if s == nil || !s.Degraded() {
		t.Fatalf("store not degraded (s=%v)", s)
	}
	if why := s.DegradedReason(); !strings.Contains(why, "read-only") {
		t.Fatalf("reason %q lacks read-only note", why)
	}
	// Writes are silent no-ops; reads are plain misses.
	cfg := config.Default(config.DMDP)
	key := ResultKey(Key{1}, cfg.Digest(), 1000)
	s.StoreStats(key, &core.Stats{Instructions: 42})
	if _, hit := s.LoadStats(key); hit {
		t.Fatal("degraded store claims a hit it could not have written")
	}
	if c := s.Counters(); !c.Degraded || c.Writes != 0 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestPublishFailureDegradesOnce: a write failure mid-run (the cache
// directory vanishes, as ENOSPC or an operator rm would) degrades the
// store to read-only with exactly one warning; previously published
// entries keep serving from the in-memory layer and the run continues.
func TestPublishFailureDegradesOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	var warnings []string
	s.SetWarnFn(func(msg string) { warnings = append(warnings, msg) })

	cfgB := config.Default(config.Baseline)
	good := ResultKey(Key{1}, cfgB.Digest(), 1000)
	s.StoreStats(good, &core.Stats{Instructions: 7})
	if _, hit := s.LoadStats(good); !hit {
		t.Fatal("pre-degradation entry should hit")
	}
	if s.Degraded() {
		t.Fatal("degraded too early")
	}

	// Make every later write fail.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	cfgD := config.Default(config.DMDP)
	k2 := ResultKey(Key{2}, cfgD.Digest(), 1000)
	s.StoreStats(k2, &core.Stats{Instructions: 8})
	s.StoreStats(k2, &core.Stats{Instructions: 8}) // second failure: no second warning
	if !s.Degraded() {
		t.Fatal("publish failure did not degrade the store")
	}
	if len(warnings) != 1 {
		t.Fatalf("got %d warnings, want exactly 1: %q", len(warnings), warnings)
	}
	if !strings.Contains(warnings[0], "read-only") || !strings.Contains(warnings[0], "simulation continues") {
		t.Fatalf("warning not structured: %q", warnings[0])
	}
	if !strings.Contains(s.Summary(), "DEGRADED") {
		t.Fatalf("summary lacks degradation note: %q", s.Summary())
	}
}

// TestSetWarnFnAfterDegradation: registering the sink after the store
// already degraded (Open-time failure) still delivers the warning.
func TestSetWarnFnAfterDegradation(t *testing.T) {
	file := filepath.Join(t.TempDir(), "f")
	os.WriteFile(file, nil, 0o644)
	s, err := Open(filepath.Join(file, "cache"), Verify, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	s.SetWarnFn(func(msg string) { got = append(got, msg) })
	if len(got) != 1 {
		t.Fatalf("late SetWarnFn delivered %d warnings, want 1", len(got))
	}
}
