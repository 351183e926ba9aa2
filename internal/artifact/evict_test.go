package artifact

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// writeEntry drops a fake complete cache entry of the given size and
// mtime directly into the store directory (eviction only looks at
// directory metadata, not entry contents).
func writeEntry(t *testing.T, dir, name string, size int, mtime time.Time) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

func survivors(t *testing.T, dir string) map[string]bool {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, de := range ents {
		out[de.Name()] = true
	}
	return out
}

// Equal-mtime entries must evict in deterministic (name) order, not in
// whatever order os.ReadDir returned them — the old behavior was
// filesystem-dependent. This pins the boundary: four same-mtime entries,
// a cap that forces exactly two evictions, and the two lexicographically
// smallest names must be the ones that go.
func TestEnforceCapEqualMtimeTieBreak(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, RW, 2*100)
	if err != nil {
		t.Fatal(err)
	}
	tick := time.Now().Add(-time.Hour).Truncate(time.Second)
	// Deliberately created in non-lexicographic order so a listing-order
	// eviction would pick a different pair.
	for _, name := range []string{"cc", "aa", "dd", "bb"} {
		writeEntry(t, dir, name, 100, tick)
	}
	s.enforceCap()
	got := survivors(t, dir)
	if len(got) != 2 || !got["cc"] || !got["dd"] {
		t.Fatalf("survivors = %v, want exactly {cc, dd} (evict smallest names first within an mtime tie)", got)
	}
}

// mtime still dominates: an older entry evicts before a newer one even
// when its name sorts later; the name is only the tie-break.
func TestEnforceCapMtimePrimary(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, RW, 2*100)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour).Truncate(time.Second)
	writeEntry(t, dir, "zz-oldest", 100, base.Add(-2*time.Second))
	writeEntry(t, dir, "aa-newer", 100, base)
	writeEntry(t, dir, "bb-newer", 100, base)
	s.enforceCap()
	got := survivors(t, dir)
	if len(got) != 2 || got["zz-oldest"] {
		t.Fatalf("survivors = %v, want zz-oldest evicted first despite its name", got)
	}
	if !got["bb-newer"] || !got["aa-newer"] {
		t.Fatalf("survivors = %v, want both newer entries kept", got)
	}
}

// At the exact cap no eviction happens (the cap is inclusive).
func TestEnforceCapAtBoundary(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, RW, 3*100)
	if err != nil {
		t.Fatal(err)
	}
	tick := time.Now().Truncate(time.Second)
	for _, name := range []string{"aa", "bb", "cc"} {
		writeEntry(t, dir, name, 100, tick)
	}
	s.enforceCap()
	if got := survivors(t, dir); len(got) != 3 {
		t.Fatalf("survivors = %v, want all three (total == cap must not evict)", got)
	}
}

// A store far below its cap walks its directory once, at the first
// publish, and afterwards only advances its running size estimate instead
// of walking on every publish. Once the estimate passes the cap, every
// publish walks and evicts down to the cap again.
func TestPublishWalksOnlyPastCap(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, RW, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.publish(filepath.Join(dir, fmt.Sprintf("entry-%04d", i)), make([]byte, 64))
	}
	if s.capWalks != 1 {
		t.Fatalf("1,000 publishes far below the cap walked the directory %d times, want 1", s.capWalks)
	}

	dir = t.TempDir()
	if s, err = Open(dir, RW, 10*100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		s.publish(filepath.Join(dir, fmt.Sprintf("entry-%04d", i)), make([]byte, 100))
	}
	if s.capWalks != 6 {
		t.Errorf("walks = %d, want 6 (the first publish, then each of the 5 past the cap)", s.capWalks)
	}
	got := survivors(t, dir)
	if len(got) != 10 || got["entry-0004"] || !got["entry-0005"] {
		t.Fatalf("survivors = %v, want entry-0005..entry-0014", got)
	}
}
