package artifact

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// Framed record formats. Every stored artifact shares one frame:
//
//	[8] magic+version  [4] payload checksum (payloadChecksum)  payload
//
// Five kinds use it: traces (DMDPTRC3, traceio.go), checkpoints
// (DMDPCKP1) and sampling plans (DMDPPLN1, checkpointio.go), simulation
// results (DMDPRES1, statsio.go) and warm-state records (DMDPCKP2,
// warmio.go). Each kind contributes its magic, file suffix, counter pair
// and a payload codec; framing, validation, the load path (load) and the
// get-or-compute path (get) are shared. Every payload decoder bounds
// each count it reads by the bytes remaining before it allocates, so a
// record whose checksum happens to match hostile lengths is a miss,
// never a panic or a runaway allocation.
const frameHeaderSize = 12

// framedKind is one framed record format.
type framedKind[T any] struct {
	magic   [8]byte
	suffix  string
	lookups int // index of the kind's counter pair in Store.hits/misses
	// mapped kinds are read through readEntire's private file mapping
	// and their decoded values are memoized per file identity
	// (Store.loaded). Only traces are mapped: their decoder casts the
	// entries in place instead of copying them out.
	mapped bool
	// encode returns the payload as parts whose concatenation is the
	// payload, so a kind can hand over views of the value's own memory
	// instead of copying them (traces do); nil refuses the value.
	encode func(v *T) [][]byte
	decode func(payload []byte) *T // payload decoder; nil rejects the record
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcChunkSize is the unit of the payload checksum. Multi-chunk payloads
// are checksummed per chunk so decode can verify on all cores.
const crcChunkSize = 1 << 22 // 4 MiB

// payloadChecksum is the frame's integrity check: the CRC32C of each
// 4 MiB chunk, folded by a CRC32C over the little-endian chunk CRCs.
// Single-chunk payloads degenerate to a plain CRC32C, so every record up
// to 4 MiB stores exactly the CRC32C of its payload. Any flipped bit
// changes its chunk's CRC and therefore the folded value, so the
// detection strength matches a whole-payload CRC — but the chunks verify
// in parallel, which keeps a trace-store hit an order of magnitude
// cheaper than rebuilding the trace even though the hit rereads tens of
// megabytes. The fold is deterministic (chunk order is positional), so
// identical payloads always store identical checksums. The payload may
// come in parts: chunks are cut from their concatenation, so any split
// of one payload gives the same checksum.
func payloadChecksum(parts ...[]byte) uint32 {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	// crcRange is the CRC32C of bytes [lo, hi) of the concatenation.
	crcRange := func(lo, hi int) uint32 {
		var c uint32
		off := 0
		for _, p := range parts {
			if a, b := max(lo, off), min(hi, off+len(p)); a < b {
				c = crc32.Update(c, crcTable, p[a-off:b-off])
			}
			off += len(p)
		}
		return c
	}
	n := (size + crcChunkSize - 1) / crcChunkSize
	if n <= 1 {
		return crcRange(0, size)
	}
	sums := make([]byte, 4*n)
	sum := func(i int) {
		lo := i * crcChunkSize
		binary.LittleEndian.PutUint32(sums[4*i:], crcRange(lo, min(lo+crcChunkSize, size)))
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		// Single-CPU hosts skip the goroutine machinery: same chunking,
		// same folded value, no scheduler overhead.
		for i := 0; i < n; i++ {
			sum(i)
		}
		return crc32.Checksum(sums, crcTable)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				sum(i)
			}
		}()
	}
	wg.Wait()
	return crc32.Checksum(sums, crcTable)
}

// header returns the frame header of the payload made of parts: the
// kind's magic and the payload checksum.
func (k *framedKind[T]) header(parts ...[]byte) []byte {
	h := make([]byte, frameHeaderSize)
	copy(h, k.magic[:])
	binary.LittleEndian.PutUint32(h[8:], payloadChecksum(parts...))
	return h
}

// decodeFile checks a file image's magic and payload checksum, then
// decodes the payload. It returns nil when the image is short, carries
// another kind's magic, fails its checksum or fails the payload decoder.
func (k *framedKind[T]) decodeFile(buf []byte) *T {
	if len(buf) < frameHeaderSize || [8]byte(buf[:8]) != k.magic {
		return nil
	}
	payload := buf[frameHeaderSize:]
	if payloadChecksum(payload) != binary.LittleEndian.Uint32(buf[8:12]) {
		return nil
	}
	return k.decode(payload)
}

// read returns the bytes of the file at path. Mapped kinds map it (see
// readEntire); every other kind reads it into an owned buffer, since
// its decoder copies everything out and mappings are never unmapped:
// routing those high-frequency loads — one checkpoint restore per
// interval per sampled run — through mmap would leak a mapping per read
// until the kernel's vm.max_map_count is exhausted and the Go runtime
// aborts.
func (k *framedKind[T]) read(path string) ([]byte, bool) {
	if k.mapped {
		return readEntire(path)
	}
	buf, err := os.ReadFile(path)
	return buf, err == nil
}

// load is the read path of every framed kind: read the entry, unframe,
// decode. It returns the value and the payload it was decoded from. A
// missing file is a miss; a record that fails unframing or decoding is
// a miss that is dropped (deleted in read-write modes, counted either
// way) so the caller rewrites it; an empty file reads as such a corrupt
// entry. A hit counts its bytes and refreshes the entry's mtime for LRU
// eviction. A mapped kind first asks the memo: reloading a file this
// store already decoded returns the same value — one mapping and one
// checksum pass per distinct file content.
func (k *framedKind[T]) load(s *Store, key Key) (*T, []byte, bool) {
	if s == nil {
		return nil, nil, false
	}
	path := s.path(key, k.suffix)
	if k.mapped {
		if m, ok := s.recall(key, path); ok {
			s.hits[k.lookups].Add(1)
			s.touch(path)
			s.remember(key, path, m) // refresh the post-touch mtime
			return m.v.(*T), m.payload, true
		}
	}
	buf, ok := k.read(path)
	if !ok {
		s.misses[k.lookups].Add(1)
		return nil, nil, false
	}
	v := k.decodeFile(buf)
	if v == nil {
		s.drop(path)
		s.misses[k.lookups].Add(1)
		return nil, nil, false
	}
	s.hits[k.lookups].Add(1)
	s.bytesRead.Add(int64(len(buf)))
	s.touch(path)
	payload := buf[frameHeaderSize:]
	if k.mapped {
		s.remember(key, path, memoized{v: v, payload: payload})
	}
	return v, payload, true
}

// store persists v under key (no-op for nil or read-only stores, nil
// values and values the encoder refuses).
func (k *framedKind[T]) store(s *Store, key Key, v *T) {
	if !s.writable() || v == nil {
		return
	}
	if parts := k.encode(v); parts != nil {
		s.publish(s.path(key, k.suffix), append([][]byte{k.header(parts...)}, parts...)...)
	}
}

// get is the get-or-compute path of every kind the store serves through
// one: a hit returns the stored value, and a miss calls compute and
// stores what it returns. In verify mode a hit calls compute too and
// compares the stored payload with the encoding of the recomputed
// value, byte for byte (part by part, never joined into a copy): a
// match returns the stored value, so verify output equals a plain warm
// run's, and a mismatch returns a *VerifyError naming bench and label
// and writes nothing. The zero key only computes: callers pass it for
// values that must never be stored, such as fault-injected runs, which
// the store cannot tell from clean ones. A nil store misses every
// lookup. A failed compute is returned as is and never stored.
func get[T any](s *Store, k *framedKind[T], key Key, bench, label string, compute func() (*T, error)) (*T, error) {
	if key == (Key{}) {
		return compute()
	}
	cached, payload, hit := k.load(s, key)
	if hit && s.mode != Verify { // only a non-nil store hits
		return cached, nil
	}
	v, err := compute()
	if err != nil {
		return nil, err
	}
	if !hit {
		k.store(s, key, v)
		return v, nil
	}
	if fresh := k.encode(v); firstDiff(payload, fresh) >= 0 {
		return nil, newVerifyError(key, s.path(key, k.suffix), bench, label, payload, fresh)
	}
	return cached, nil
}

// memoized is one decoded value of a mapped kind, the mapped payload it
// aliases, and the identity of the file both were read (and
// checksum-verified) from.
type memoized struct {
	id      fileID
	v       any
	payload []byte
}

// recall returns what this store decoded from path's current content
// under key, if anything. Any rewrite, truncation or eviction changes
// the file's identity and forces a fresh verified decode.
func (s *Store) recall(key Key, path string) (memoized, bool) {
	id, ok := statID(path)
	if !ok {
		return memoized{}, false
	}
	s.loadedMu.Lock()
	m, hit := s.loaded[key]
	s.loadedMu.Unlock()
	return m, hit && m.id == id
}

// remember records m as what was decoded for key, tagged with the
// file's current (post-touch) identity.
func (s *Store) remember(key Key, path string, m memoized) {
	id, ok := statID(path)
	if !ok {
		return
	}
	m.id = id
	s.loadedMu.Lock()
	if s.loaded == nil {
		s.loaded = make(map[Key]memoized)
	}
	s.loaded[key] = m
	s.loadedMu.Unlock()
}
