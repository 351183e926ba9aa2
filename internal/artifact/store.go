// Package artifact is the persistent, content-addressed cache behind the
// experiment runner: traces (binary-encoded trace.Trace, DESIGN §9),
// simulation results (canonical core.Stats encodings), and the sampling
// layer's checkpoints, plans and warm state. Every entry is one framed
// record (frame.go). Entries are keyed by SHA-256 over every input that
// determines their content plus an explicit format/schema version,
// written via temp file + atomic rename, and validated (magic, version,
// checksum, exact length) on read — anything that fails validation is a
// miss, and read-write stores overwrite it with a fresh entry. A size
// cap evicts least-recently-used files (hits refresh mtime).
package artifact

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmdp/internal/config"
	"dmdp/internal/core"
)

// Mode selects how a store participates in a run.
type Mode int

// Cache modes, in the order the -cache flag documents them.
const (
	// Off disables the cache entirely (Open returns a nil store).
	Off Mode = iota
	// RO reads existing entries but never writes or evicts.
	RO
	// RW reads and writes (the normal warm-cache mode).
	RW
	// Verify reads and writes like RW, but Store.Trace and Store.Result
	// recompute every hit (rebuild the trace, re-simulate the result)
	// and fail loudly on mismatch (the stale-artifact oracle); see
	// VerifyError.
	Verify
)

func (m Mode) String() string {
	switch m {
	case RO:
		return "ro"
	case RW:
		return "rw"
	case Verify:
		return "verify"
	}
	return "off"
}

// ParseMode parses a -cache flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return Off, nil
	case "ro":
		return RO, nil
	case "rw":
		return RW, nil
	case "verify":
		return Verify, nil
	}
	return Off, fmt.Errorf("artifact: unknown cache mode %q (want off, ro, rw or verify)", s)
}

// DefaultDir returns the default cache directory
// (os.UserCacheDir()/dmdp, or a .dmdp-cache fallback when the user cache
// dir is undefined).
func DefaultDir() string {
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "dmdp")
	}
	return ".dmdp-cache"
}

// DefaultMaxBytes caps the cache directory at 2 GiB unless overridden.
const DefaultMaxBytes = 2 << 30

// Key addresses one cache entry. Keys are SHA-256 digests over the
// entry's inputs and format version, so distinct content never aliases
// and format bumps invalidate wholesale.
type Key [sha256.Size]byte

func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ResultKey derives the result-store key for one simulation: the trace
// key (which already encodes workload, budget and trace format), the
// configuration digest (which covers every Config field), and the stats
// schema version.
func ResultKey(traceKey Key, cfg config.Digest, budget int64) Key {
	h := sha256.New()
	h.Write([]byte("dmdp-result\x00"))
	h.Write(traceKey[:])
	h.Write(cfg[:])
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(budget))
	binary.LittleEndian.PutUint64(b[8:], core.StatsSchemaVersion)
	h.Write(b[:])
	var k Key
	h.Sum(k[:0])
	return k
}

// Counters aggregates a store's activity for the run summary. All fields
// count events since Open.
type Counters struct {
	TraceHits, TraceMisses   int64
	ResultHits, ResultMisses int64
	// CheckpointHits/CheckpointMisses count checkpoint and sampling-plan
	// artifact lookups (both kinds share the pair: a plan hit without its
	// checkpoints still re-streams, so they degrade together).
	CheckpointHits, CheckpointMisses int64
	// WarmHits/WarmMisses count functional-warm-state artifact lookups; a
	// warm miss at a sampled interval degrades that interval to a cold
	// start, not a failure. WarmBytes is the total decoded snapshot bytes
	// served from warm hits.
	WarmHits, WarmMisses      int64
	WarmBytes                 int64
	Writes                    int64
	BytesRead, BytesWritten   int64
	Evictions, CorruptDropped int64
	// Degraded reports a write-failure fallback to read-only (see
	// Store.Degraded).
	Degraded bool
}

// Store is an on-disk artifact cache rooted at one directory. A nil
// *Store is valid and behaves as an always-miss, never-write cache, so
// callers thread it unconditionally. Methods are safe for concurrent
// use.
type Store struct {
	dir      string
	mode     Mode
	maxBytes int64

	// degraded flips (once, permanently) when a write fails — an
	// unwritable directory at Open, ENOSPC or any other publish error.
	// A degraded store keeps serving reads but never writes again: the
	// cache is best-effort and the simulation must not die for it. The
	// first degradation records a structured reason and fires warnFn.
	degraded    atomic.Bool
	degradeOnce sync.Once
	degradedWhy atomic.Value // string
	warnFn      func(msg string)

	// evictMu serializes size-cap walks and guards the running estimate
	// that decides when one is due: the directory's total at the last
	// walk plus every byte this store published since (dirKnown is false
	// until the first walk). Another process's writes to the directory
	// are counted at the next walk.
	evictMu  sync.Mutex
	dirBytes int64
	dirKnown bool
	capWalks int64

	// loaded memoizes the decoded values of mapped kinds (traces) per
	// key, tagged with the identity of the file they were decoded from
	// (see framedKind.load). Reloading an unchanged file returns the
	// already-verified, already-mapped value — no second mapping
	// (mappings are never unmapped, so repeated loads must not map
	// repeatedly) and no second checksum pass. Any rewrite, truncation
	// or eviction changes the identity and forces a fresh verified
	// decode.
	loadedMu sync.Mutex
	loaded   map[Key]memoized

	hits, misses            [numLookups]atomic.Int64
	warmBytes               atomic.Int64
	writes                  atomic.Int64
	bytesRead, bytesWritten atomic.Int64
	evictions, corrupt      atomic.Int64
}

// Lookup classes: each owns one hit/miss pair in Counters.
const (
	traceLookups = iota
	resultLookups
	checkpointLookups // checkpoints and sampling plans
	warmLookups
	numLookups
)

// fileID identifies one published cache file's content for in-process
// memoization (see Store.loaded). Platform stat code fills it; the zero
// value never matches a real file.
type fileID struct {
	dev, ino uint64
	size     int64
	mtimeNS  int64
}

// Open creates (if needed) the cache directory and returns a store in
// the given mode. Mode Off returns (nil, nil): the nil store misses
// everything and persists nothing. maxBytes <= 0 means DefaultMaxBytes;
// in a read-write mode, writes evict down to the cap once the store's
// running size estimate passes it (see noteWrite).
func Open(dir string, mode Mode, maxBytes int64) (*Store, error) {
	if mode == Off {
		return nil, nil
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	s := &Store{dir: dir, mode: mode, maxBytes: maxBytes}
	if mode != RO {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			// An unwritable cache directory must not surface as a run
			// error: degrade to read-only (existing entries, if any,
			// still serve) and keep simulating.
			s.degrade(fmt.Sprintf("cache directory unusable (%v)", err))
		}
	}
	return s, nil
}

// SetWarnFn registers the sink for the store's one-time degradation
// warning (nil discards it). Call before the first write. If the store
// already degraded (e.g. during Open), fn fires immediately.
func (s *Store) SetWarnFn(fn func(msg string)) {
	if s == nil {
		return
	}
	s.warnFn = fn
	if fn != nil && s.degraded.Load() {
		fn(s.DegradedReason())
	}
}

// Degraded reports whether the store fell back to read-only after a
// write failure (false for a nil store).
func (s *Store) Degraded() bool { return s != nil && s.degraded.Load() }

// DegradedReason returns the structured one-line reason for the
// degradation ("" when not degraded).
func (s *Store) DegradedReason() string {
	if s == nil {
		return ""
	}
	if why, ok := s.degradedWhy.Load().(string); ok {
		return why
	}
	return ""
}

// degrade permanently flips the store to read-only with a one-time
// structured warning. Reads keep working; every later write is a
// silent no-op. Concurrent degradations keep the first reason.
func (s *Store) degrade(cause string) {
	s.degradeOnce.Do(func() {
		msg := fmt.Sprintf(
			"artifact: cache degraded %s -> read-only: %s (dir %s); simulation continues without persisting new entries",
			s.mode, cause, s.dir)
		s.degradedWhy.Store(msg)
		s.degraded.Store(true)
		if s.warnFn != nil {
			s.warnFn(msg)
		}
	})
}

// Mode returns the store's mode (Off for a nil store).
func (s *Store) Mode() Mode {
	if s == nil {
		return Off
	}
	return s.mode
}

// Dir returns the cache directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

func (s *Store) writable() bool { return s != nil && s.mode != RO && !s.degraded.Load() }

// Counters returns a snapshot of the store's activity (zero for a nil
// store).
func (s *Store) Counters() Counters {
	if s == nil {
		return Counters{}
	}
	return Counters{
		TraceHits:        s.hits[traceLookups].Load(),
		TraceMisses:      s.misses[traceLookups].Load(),
		ResultHits:       s.hits[resultLookups].Load(),
		ResultMisses:     s.misses[resultLookups].Load(),
		CheckpointHits:   s.hits[checkpointLookups].Load(),
		CheckpointMisses: s.misses[checkpointLookups].Load(),
		WarmHits:         s.hits[warmLookups].Load(),
		WarmMisses:       s.misses[warmLookups].Load(),
		WarmBytes:        s.warmBytes.Load(),
		Writes:           s.writes.Load(),
		BytesRead:        s.bytesRead.Load(),
		BytesWritten:     s.bytesWritten.Load(),
		Evictions:        s.evictions.Load(),
		CorruptDropped:   s.corrupt.Load(),
		Degraded:         s.degraded.Load(),
	}
}

// Summary renders the counters as one human-readable line for the
// experiments summary ("" for a nil store).
func (s *Store) Summary() string {
	if s == nil {
		return ""
	}
	c := s.Counters()
	line := fmt.Sprintf(
		"cache %s (%s): traces %d hit / %d miss, results %d hit / %d miss, %d written (%.1f MiB out, %.1f MiB in)",
		s.mode, s.dir,
		c.TraceHits, c.TraceMisses, c.ResultHits, c.ResultMisses,
		c.Writes, float64(c.BytesWritten)/(1<<20), float64(c.BytesRead)/(1<<20))
	if c.CheckpointHits > 0 || c.CheckpointMisses > 0 {
		line += fmt.Sprintf(", checkpoints %d hit / %d miss", c.CheckpointHits, c.CheckpointMisses)
	}
	if c.WarmHits > 0 || c.WarmMisses > 0 {
		line += fmt.Sprintf(", warm state %d hit / %d miss (%.1f MiB)",
			c.WarmHits, c.WarmMisses, float64(c.WarmBytes)/(1<<20))
	}
	if c.Evictions > 0 || c.CorruptDropped > 0 {
		line += fmt.Sprintf(", %d evicted, %d corrupt dropped", c.Evictions, c.CorruptDropped)
	}
	if s.Degraded() {
		line += ", DEGRADED to read-only"
	}
	return line
}

// VerifyError reports a verify-mode mismatch: a cached entry whose
// payload differs from the encoding of a fresh recomputation with
// identical inputs (a rebuilt trace, a re-simulated result). It means
// the entry is stale or the simulator became nondeterministic — either
// way the cache cannot be trusted.
type VerifyError struct {
	Key       Key    // store key of the poisoned entry
	Path      string // file the entry was read from
	Bench     string // workload name
	Label     string // configuration label, or "trace"
	CachedSHA string // SHA-256 of the cached payload
	FreshSHA  string // SHA-256 of the recomputed encoding
	FirstDiff int    // first differing byte offset in the payload
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf(
		"artifact: verify mismatch for %s/%s: cached entry %s != recomputed %s (first differing byte %d, key %s, file %s)",
		e.Bench, e.Label, e.CachedSHA, e.FreshSHA, e.FirstDiff, e.Key, e.Path)
}

// newVerifyError builds the structured diagnostic for a poisoned entry
// from the cached payload and the parts of the recomputed encoding.
func newVerifyError(key Key, path, bench, label string, cached []byte, fresh [][]byte) *VerifyError {
	cs := sha256.Sum256(cached)
	h := sha256.New()
	for _, p := range fresh {
		h.Write(p)
	}
	return &VerifyError{
		Key: key, Path: path, Bench: bench, Label: label,
		CachedSHA: hex.EncodeToString(cs[:8]), FreshSHA: hex.EncodeToString(h.Sum(nil)[:8]),
		FirstDiff: firstDiff(cached, fresh),
	}
}

// firstDiff returns the offset of the first byte at which b and the
// concatenation of parts differ (the shorter length when one is a
// prefix of the other), or -1 when they are equal.
func firstDiff(b []byte, parts [][]byte) int {
	off := 0
	for _, p := range parts {
		n := min(len(p), len(b)-off)
		if !bytes.Equal(b[off:off+n], p[:n]) {
			for i := range n {
				if b[off+i] != p[i] {
					return off + i
				}
			}
		}
		if n < len(p) {
			return off + n
		}
		off += n
	}
	if off < len(b) {
		return off
	}
	return -1
}

// path returns the file for a key with the given suffix.
func (s *Store) path(key Key, suffix string) string {
	return filepath.Join(s.dir, key.String()+suffix)
}

// publishBufs holds the write buffers publish gathers parts in, so an
// entry made of many small parts (a checkpoint's pages) costs one write
// call per buffer, not one per part; a part larger than the buffer goes
// to the file directly.
var publishBufs = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 256<<10) }}

// publish atomically installs the concatenated parts at path via a temp
// file + rename, then enforces the size cap. A failed write (unwritable
// directory, ENOSPC mid-write, rename failure) degrades the whole store
// to read-only with a one-time warning — the entry stays absent, later
// writes stop being attempted, and the run continues.
func (s *Store) publish(path string, parts ...[]byte) {
	if !s.writable() {
		return
	}
	tmp, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		s.degrade(fmt.Sprintf("cannot create cache entry (%v)", err))
		return
	}
	w := publishBufs.Get().(*bufio.Writer)
	w.Reset(tmp)
	var n int64
	var werr error
	for _, p := range parts {
		if _, werr = w.Write(p); werr != nil {
			break
		}
		n += int64(len(p))
	}
	if werr == nil {
		werr = w.Flush()
	}
	w.Reset(nil)
	publishBufs.Put(w)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		s.degrade(fmt.Sprintf("cache entry write failed (%v)", werr))
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		s.degrade(fmt.Sprintf("cache entry publish failed (%v)", err))
		return
	}
	s.writes.Add(1)
	s.bytesWritten.Add(n)
	s.noteWrite(n)
}

// noteWrite advances the running size estimate by a published entry of n
// bytes. The directory is walked (enforceCap) only on the first publish
// and once the estimate passes maxBytes.
func (s *Store) noteWrite(n int64) {
	s.evictMu.Lock()
	s.dirBytes += n
	due := !s.dirKnown || s.dirBytes > s.maxBytes
	s.evictMu.Unlock()
	if due {
		s.enforceCap()
	}
}

// touch refreshes a file's mtime so LRU eviction sees the hit. Read-only
// stores leave mtimes alone.
func (s *Store) touch(path string) {
	if s.writable() {
		now := time.Now()
		os.Chtimes(path, now, now)
	}
}

// drop removes a corrupt entry (read-write modes only) and counts it.
func (s *Store) drop(path string) {
	s.corrupt.Add(1)
	if s.writable() {
		os.Remove(path)
	}
}

// enforceCap deletes least-recently-used cache files until the directory
// is under maxBytes, and resets the running size estimate to what is
// left. Only complete entries (never tmp files being written elsewhere)
// are considered; races with concurrent writers are benign because
// entries are immutable once renamed in.
func (s *Store) enforceCap() {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	s.capWalks++
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type file struct {
		path  string
		size  int64
		mtime int64
	}
	var files []file
	var total int64
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		total += info.Size()
		if len(de.Name()) >= 4 && de.Name()[:4] == "tmp-" {
			continue // in-flight writes are not eviction candidates
		}
		files = append(files, file{
			path:  filepath.Join(s.dir, de.Name()),
			size:  info.Size(),
			mtime: info.ModTime().UnixNano(),
		})
	}
	s.dirBytes, s.dirKnown = total, true
	if total <= s.maxBytes {
		return
	}
	// LRU by mtime, ties broken by file name: coarse filesystem
	// timestamps make equal mtimes common (a warm-up burst can publish
	// dozens of entries in one tick), and without the secondary key the
	// eviction order within a tie would be whatever os.ReadDir's
	// directory listing happened to be — filesystem-dependent and
	// irreproducible.
	sort.Slice(files, func(i, j int) bool {
		if files[i].mtime != files[j].mtime {
			return files[i].mtime < files[j].mtime
		}
		return files[i].path < files[j].path
	})
	for _, f := range files {
		if total <= s.maxBytes {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			s.evictions.Add(1)
		}
	}
	s.dirBytes = total
}
