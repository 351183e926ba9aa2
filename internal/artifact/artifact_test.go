package artifact

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
	"time"
	"unsafe"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/mem"
	"dmdp/internal/trace"
	"dmdp/internal/workload"
)

const testBudget = 5_000

func buildTestTrace(t *testing.T, bench string) (*workload.Spec, *trace.Trace) {
	t.Helper()
	spec, ok := workload.Get(bench)
	if !ok {
		t.Fatalf("unknown workload %s", bench)
	}
	tr, err := spec.BuildTrace(testBudget)
	if err != nil {
		t.Fatal(err)
	}
	return spec, tr
}

func runStats(t *testing.T, cfg config.Config, tr *trace.Trace) *core.Stats {
	t.Helper()
	c, err := core.New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func openRW(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTraceRoundTrip(t *testing.T) {
	spec, tr := buildTestTrace(t, "gcc")
	s := openRW(t)
	key := TraceKey(spec.SourceHash(), testBudget)

	if _, ok := s.LoadTrace(key); ok {
		t.Fatal("hit before store")
	}
	s.StoreTrace(key, tr)
	got, ok := s.LoadTrace(key)
	if !ok {
		t.Fatal("miss after store")
	}

	// Semantic equality: re-encoding the decoded trace must reproduce
	// the original payload exactly (same entries, index, program,
	// counters — and a canonical encoder).
	a, b := tracePayload(tr), tracePayload(got)
	if !bytes.Equal(a, b) {
		t.Fatal("decoded trace re-encodes differently")
	}

	// Behavioral equality: a simulation over the decoded trace produces
	// byte-identical canonical stats.
	cfg := config.Default(config.DMDP)
	st1 := runStats(t, cfg, tr)
	st2 := runStats(t, cfg, got)
	if !bytes.Equal(st1.MarshalCanonical(), st2.MarshalCanonical()) {
		t.Fatal("decoded trace simulates differently")
	}
}

func TestTraceEncodingCanonical(t *testing.T) {
	_, tr := buildTestTrace(t, "perl")
	a := tracePayload(tr)
	b := tracePayload(tr)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same trace differ")
	}
	// Decode → encode must also be canonical even though the symbol map
	// was rebuilt with fresh iteration order.
	dec := decodeTrace(append([]byte(nil), a...))
	if dec == nil {
		t.Fatal("decode failed")
	}
	if !bytes.Equal(tracePayload(dec), a) {
		t.Fatal("encoding depends on map iteration order")
	}
}

func TestCorruptEntriesAreMisses(t *testing.T) {
	spec, tr := buildTestTrace(t, "mcf")
	s := openRW(t)
	key := TraceKey(spec.SourceHash(), testBudget)
	s.StoreTrace(key, tr)
	// Load once so the in-process verification memo is hot: every
	// corruption below rewrites the file, which must invalidate the memo
	// and force a full checksum pass (and therefore a miss).
	if _, ok := s.LoadTrace(key); !ok {
		t.Fatal("miss after store")
	}
	path := s.path(key, traceKind.suffix)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mutate := map[string]func([]byte) []byte{
		"truncated":       func(b []byte) []byte { return b[:len(b)/2] },
		"empty":           func([]byte) []byte { return nil },
		"flipped payload": func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"flipped header":  func(b []byte) []byte { b[0] ^= 0xff; return b },
		"wrong version":   func(b []byte) []byte { b[7] = '9'; return b },
		"foreign layout":  resignedShort,
		"header only":     func(b []byte) []byte { return b[:frameHeaderSize] },
		"garbage":         func(b []byte) []byte { return []byte("not a cache entry") },
	}
	for name, fn := range mutate {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, fn(append([]byte(nil), orig...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.LoadTrace(key); ok {
				t.Fatal("corrupt entry hit")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry not dropped by rw store")
			}
			// The store rewrites it on the next StoreTrace, and it hits
			// again.
			s.StoreTrace(key, tr)
			if _, ok := s.LoadTrace(key); !ok {
				t.Fatal("rewritten entry missed")
			}
		})
	}
	if c := s.Counters(); c.CorruptDropped != int64(len(mutate)) {
		t.Fatalf("corrupt counter = %d, want %d", c.CorruptDropped, len(mutate))
	}
}

func TestStatsRoundTripAndCorruption(t *testing.T) {
	s := openRW(t)
	st := &core.Stats{Cycles: 123, Instructions: 456, SimWallClockNS: 999}
	st.LoadCount[1] = 7
	cfg := config.Default(config.NoSQ)
	key := ResultKey(Key{1}, cfg.Digest(), testBudget)

	if _, ok := s.LoadStats(key); ok {
		t.Fatal("hit before store")
	}
	s.StoreStats(key, st)
	got, ok := s.LoadStats(key)
	if !ok {
		t.Fatal("miss after store")
	}
	if got.Cycles != 123 || got.Instructions != 456 || got.LoadCount[1] != 7 {
		t.Fatalf("wrong stats decoded: %+v", got)
	}
	if got.SimWallClockNS != 0 {
		t.Fatal("wall clock should not round-trip")
	}

	path := s.path(key, resultKind.suffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadStats(key); ok {
		t.Fatal("corrupt stats entry hit")
	}
}

func TestReadOnlyStoreNeverWrites(t *testing.T) {
	dir := t.TempDir()
	rw, err := Open(dir, RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec, tr := buildTestTrace(t, "lbm")
	key := TraceKey(spec.SourceHash(), testBudget)
	rw.StoreTrace(key, tr)

	ro, err := Open(dir, RO, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ro.LoadTrace(key); !ok {
		t.Fatal("ro store missed existing entry")
	}
	other := TraceKey(spec.SourceHash(), testBudget+1)
	ro.StoreTrace(other, tr)
	if _, err := os.Stat(ro.path(other, traceKind.suffix)); !os.IsNotExist(err) {
		t.Fatal("ro store wrote a file")
	}
	// A corrupt entry must not be deleted by an ro store either.
	path := ro.path(key, traceKind.suffix)
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := ro.LoadTrace(key); ok {
		t.Fatal("junk hit")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("ro store removed a corrupt entry")
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	if s.Mode() != Off || s.Dir() != "" || s.Summary() != "" {
		t.Fatal("nil store accessors wrong")
	}
	if _, ok := s.LoadTrace(Key{}); ok {
		t.Fatal("nil store hit")
	}
	if _, ok := s.LoadStats(Key{}); ok {
		t.Fatal("nil store hit")
	}
	s.StoreTrace(Key{}, nil)
	s.StoreStats(Key{}, nil)
	if c := s.Counters(); c != (Counters{}) {
		t.Fatal("nil store counted something")
	}
	if s, err := Open("unused", Off, 0); s != nil || err != nil {
		t.Fatal("Open(Off) should return a nil store")
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// Cap at exactly three result entries: the fourth write must evict.
	entryBytes := int64(len(resultKind.encodeFile(&core.Stats{})))
	s, err := Open(dir, RW, 3*entryBytes)
	if err != nil {
		t.Fatal(err)
	}
	st := &core.Stats{Cycles: 1}
	keys := []Key{{1}, {2}, {3}}
	for i, k := range keys {
		s.StoreStats(k, st)
		// Distinct mtimes so LRU order is unambiguous.
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		os.Chtimes(s.path(k, resultKind.suffix), old, old)
	}
	// A hit refreshes key 1; storing one more must evict key 2 (now the
	// oldest), not key 1.
	if _, ok := s.LoadStats(keys[0]); !ok {
		t.Fatal("miss")
	}
	s.StoreStats(Key{4}, st)
	if _, err := os.Stat(s.path(keys[0], resultKind.suffix)); err != nil {
		t.Fatal("recently used entry evicted")
	}
	if _, err := os.Stat(s.path(keys[1], resultKind.suffix)); !os.IsNotExist(err) {
		t.Fatal("least recently used entry survived")
	}
	if c := s.Counters(); c.Evictions == 0 {
		t.Fatal("no evictions counted")
	}
	var total int64
	ents, _ := os.ReadDir(dir)
	for _, de := range ents {
		info, _ := de.Info()
		total += info.Size()
	}
	if total > 3*entryBytes {
		t.Fatalf("directory %d bytes over cap", total)
	}
}

func TestKeysSeparateInputs(t *testing.T) {
	spec, _ := workload.Get("gcc")
	other, _ := workload.Get("mcf")
	k1 := TraceKey(spec.SourceHash(), 1000)
	if k1 == TraceKey(spec.SourceHash(), 2000) {
		t.Fatal("budget not in trace key")
	}
	if k1 == TraceKey(other.SourceHash(), 1000) {
		t.Fatal("workload not in trace key")
	}
	c1, c2 := config.Default(config.NoSQ), config.Default(config.DMDP)
	d1, d2 := c1.Digest(), c2.Digest()
	if ResultKey(k1, d1, 1000) == ResultKey(k1, d2, 1000) {
		t.Fatal("config not in result key")
	}
	if ResultKey(k1, d1, 1000) == ResultKey(k1, d1, 2000) {
		t.Fatal("budget not in result key")
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"off": Off, "ro": RO, "rw": RW, "verify": Verify} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("Mode(%v).String() = %q", got, got.String())
		}
	}
	if _, err := ParseMode("always"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// resignedShort drops the file's last 8 bytes, which leaves the entry
// and index sections short of a whole record, and re-signs the frame:
// the checksum holds, but the sections no longer match the entry count,
// so the structural decoder must refuse the record.
func resignedShort(b []byte) []byte {
	b = b[:len(b)-8]
	binary.LittleEndian.PutUint32(b[8:12], payloadChecksum(b[frameHeaderSize:]))
	return b
}

// TestV1TraceIsMissAndRewritten: a file in an earlier trace format
// ("DMDPTRC1", "DMDPTRC2") under a current key reads as a miss, is
// dropped, and the get-or-build path rebuilds the trace and rewrites it
// in the current format.
func TestV1TraceIsMissAndRewritten(t *testing.T) {
	spec, tr := buildTestTrace(t, "hmmer")
	s := openRW(t)
	key := TraceKey(spec.SourceHash(), testBudget)
	path := s.path(key, traceKind.suffix)
	for i, magic := range []string{"DMDPTRC1", "DMDPTRC2"} {
		old := traceKind.encodeFile(tr)
		copy(old[:8], magic)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		builds := 0
		got, err := s.Trace(key, "hmmer", func() (*trace.Trace, error) { builds++; return tr, nil })
		if err != nil || got != tr || builds != 1 {
			t.Fatalf("%s file: trace %p err %v after %d builds, want the rebuilt trace", magic, got, err, builds)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(onDisk[:8]) != "DMDPTRC3" {
			t.Fatalf("rewritten file has magic %q", onDisk[:8])
		}
		if _, ok := s.LoadTrace(key); !ok {
			t.Fatal("rewritten trace missed")
		}
		if c := s.Counters(); c.CorruptDropped != int64(i+1) {
			t.Fatalf("dropped %d files, want the %s one", c.CorruptDropped, magic)
		}
	}
}

// TestDecodedInitMemIsTheLoadedImage: a trace file holds no memory
// image, and decode rebuilds InitMem from the program. For every proxy
// the rebuilt image must hold exactly the pages, and the bytes, of the
// image the emulator started from.
func TestDecodedInitMemIsTheLoadedImage(t *testing.T) {
	for _, name := range workload.Names() {
		spec, ok := workload.Get(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		tr, err := spec.BuildTrace(100)
		if err != nil {
			t.Fatal(err)
		}
		got := decodeTrace(tracePayload(tr))
		if got == nil {
			t.Fatalf("%s: decode failed", name)
		}
		if got.InitMem.Pages() != tr.InitMem.Pages() {
			t.Fatalf("%s: decoded image has %d pages, want %d", name, got.InitMem.Pages(), tr.InitMem.Pages())
		}
		tr.InitMem.ForEachPage(func(base uint32, want *[mem.PageSize]byte) {
			if pg, ok := got.InitMem.Page(base); !ok || *pg != *want {
				t.Fatalf("%s: decoded page 0x%08x differs (present %t)", name, base, ok)
			}
		})
	}
}

// TestTraceHitAliasesTheFile: a hit casts the entries and the index in
// place. Both sections must lie back to back inside one image of the
// whole file (the mapping), not in copies.
func TestTraceHitAliasesTheFile(t *testing.T) {
	spec, tr := buildTestTrace(t, "gcc")
	dir := t.TempDir()
	key := TraceKey(spec.SourceHash(), testBudget)
	rw, err := Open(dir, RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	rw.StoreTrace(key, tr)
	// A second store has no memo: its hit maps and decodes the file.
	s, err := Open(dir, RO, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadTrace(key)
	if !ok {
		t.Fatal("miss after store")
	}
	file, err := os.ReadFile(s.path(key, traceKind.suffix))
	if err != nil {
		t.Fatal(err)
	}
	entries := unsafe.Pointer(&got.Entries[0])
	n := len(got.Entries) * entrySize
	if uintptr(unsafe.Pointer(&got.Seq[0])) != uintptr(entries)+uintptr(n) {
		t.Fatal("the index does not follow the entries: the sections were copied")
	}
	off := len(file) - n - len(got.Seq)*seqBlockSize
	if off%8 != 0 {
		t.Fatalf("entries start at file offset %d, not 8-aligned", off)
	}
	if img := unsafe.Slice((*byte)(unsafe.Add(entries, -off)), len(file)); !bytes.Equal(img, file) {
		t.Fatal("the entries do not lie inside an image of the file")
	}
}
