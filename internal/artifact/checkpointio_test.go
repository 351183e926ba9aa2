package artifact

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dmdp/internal/emu"
	"dmdp/internal/mem"
)

// testCheckpoint holds two dirty pages, plus a page its image holds but
// Dirty does not list, which is not stored.
func testCheckpoint() *emu.Checkpoint {
	ck := &emu.Checkpoint{At: 123456, PC: 0x40, Mem: mem.NewImage()}
	for i := range ck.Regs {
		ck.Regs[i] = uint32(i * 7)
	}
	for _, base := range []uint32{0x1000, 0x7fff_f000} {
		pg := new([mem.PageSize]byte)
		for j := range pg {
			pg[j] = byte(j) ^ byte(base>>12)
		}
		ck.Mem.SetPage(base, pg)
		ck.Dirty = append(ck.Dirty, base)
	}
	ck.Mem.SetWord(0x4000, 0xdeadbeef)
	return ck
}

// ckEqual compares architectural state and the content of the listed
// dirty pages.
func ckEqual(a, b *emu.Checkpoint) bool {
	if a.At != b.At || a.PC != b.PC || a.Regs != b.Regs || !slices.Equal(a.Dirty, b.Dirty) {
		return false
	}
	for _, base := range a.Dirty {
		p, ok := a.Mem.Page(base)
		q, ok2 := b.Mem.Page(base)
		if !ok || !ok2 || *p != *q {
			return false
		}
	}
	return true
}

func TestCheckpointRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := CheckpointKey(Key(sha256.Sum256([]byte("trace"))), 123456)
	if _, ok := s.LoadCheckpoint(key); ok {
		t.Fatal("unexpected hit on empty store")
	}
	ck := testCheckpoint()
	s.StoreCheckpoint(key, ck)
	got, ok := s.LoadCheckpoint(key)
	if !ok {
		t.Fatal("expected hit after store")
	}
	if !ckEqual(ck, got) {
		t.Fatal("round trip changed the checkpoint")
	}
	if got.Mem.Pages() != len(ck.Dirty) {
		t.Fatalf("decoded image holds %d pages, want the %d dirty ones", got.Mem.Pages(), len(ck.Dirty))
	}
	c := s.Counters()
	if c.CheckpointHits != 1 || c.CheckpointMisses != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestCheckpointCorruptIsMissAndDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := CheckpointKey(Key(sha256.Sum256([]byte("t"))), 7)
	s.StoreCheckpoint(key, testCheckpoint())
	path := filepath.Join(dir, key.String()+checkpointKind.suffix)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadCheckpoint(key); ok {
		t.Fatal("corrupt checkpoint must be a miss")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt checkpoint must be dropped in rw mode")
	}
	if s.Counters().CorruptDropped != 1 {
		t.Fatal("corrupt drop not counted")
	}
}

func TestCheckpointKeyDistinctPerStart(t *testing.T) {
	tk := Key(sha256.Sum256([]byte("trace")))
	if CheckpointKey(tk, 0) == CheckpointKey(tk, 1) {
		t.Fatal("keys must differ per start")
	}
	tk2 := Key(sha256.Sum256([]byte("other")))
	if CheckpointKey(tk, 0) == CheckpointKey(tk2, 0) {
		t.Fatal("keys must differ per trace")
	}
}

func TestPlanRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := PlanKey(Key(sha256.Sum256([]byte("trace"))), "auto:4", 1)
	p := &PlanRecord{
		ChunkLen: 100_000,
		Total:    10_000_000,
		Warmup:   5000,
		HitHalt:  false,
		Intervals: []PlanInterval{
			{Start: 0, End: 100_000, Weight: 0.25},
			{Start: 400_000, End: 500_000, Weight: 0.75},
		},
	}
	if _, ok := s.LoadPlan(key); ok {
		t.Fatal("unexpected plan hit")
	}
	s.StorePlan(key, p)
	got, ok := s.LoadPlan(key)
	if !ok {
		t.Fatal("expected plan hit")
	}
	if got.ChunkLen != p.ChunkLen || got.Total != p.Total || got.Warmup != p.Warmup ||
		got.HitHalt != p.HitHalt || len(got.Intervals) != len(p.Intervals) {
		t.Fatalf("plan mismatch: %+v", got)
	}
	for i := range p.Intervals {
		if got.Intervals[i] != p.Intervals[i] {
			t.Fatalf("interval %d mismatch: %+v vs %+v", i, got.Intervals[i], p.Intervals[i])
		}
	}
}

func TestPlanKeySpecSensitivity(t *testing.T) {
	tk := Key(sha256.Sum256([]byte("trace")))
	if PlanKey(tk, "auto:4", 1) == PlanKey(tk, "auto:8", 1) {
		t.Fatal("plan keys must differ per spec")
	}
	if PlanKey(tk, "auto:4", 1) == PlanKey(tk, "auto:4", 2) {
		t.Fatal("plan keys must differ per planner version")
	}
}

func TestPlanCorruptIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := PlanKey(Key(sha256.Sum256([]byte("t"))), "10x100", 1)
	s.StorePlan(key, &PlanRecord{ChunkLen: 100, Total: 1000, Intervals: []PlanInterval{{0, 100, 1}}})
	path := filepath.Join(dir, key.String()+planKind.suffix)
	buf, _ := os.ReadFile(path)
	buf[len(buf)-1] ^= 1
	os.WriteFile(path, buf, 0o644)
	if _, ok := s.LoadPlan(key); ok {
		t.Fatal("corrupt plan must be a miss")
	}
}

// mapCount returns the process's virtual-memory-mapping count, or -1
// where /proc is unavailable.
func mapCount(t *testing.T) int {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return -1
	}
	n := 0
	for _, b := range data {
		if b == '\n' {
			n++
		}
	}
	return n
}

// Checkpoint restores happen once per interval per sampled run, so the
// load path must not hold a kernel resource per read. The mmap-backed
// trace read path deliberately never unmaps; when checkpoints loaded
// through it, every restore leaked one mapping and a long-lived daemon
// (or a benchmark loop) crashed the Go runtime against vm.max_map_count
// after ~65k restores.
func TestCheckpointLoadDoesNotLeakMappings(t *testing.T) {
	before := mapCount(t)
	if before < 0 {
		t.Skip("no /proc/self/maps on this platform")
	}
	s, err := Open(t.TempDir(), RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := CheckpointKey(Key(sha256.Sum256([]byte("trace"))), 1)
	s.StoreCheckpoint(key, testCheckpoint())
	for i := 0; i < 2000; i++ {
		if _, ok := s.LoadCheckpoint(key); !ok {
			t.Fatal("checkpoint miss")
		}
	}
	// The runtime may grow its heap by a handful of mappings; 2000 leaked
	// reads would exceed any such noise by orders of magnitude.
	if after := mapCount(t); after > before+100 {
		t.Fatalf("mapping count grew %d -> %d across 2000 checkpoint loads", before, after)
	}
}
