package artifact

import (
	"encoding/binary"
	"hash/crc32"
	"os"
)

// Framed record formats. Checkpoints (DMDPCKP1), sampling plans
// (DMDPPLN1), simulation results (DMDPRES1) and warm-state records
// (DMDPCKP2) share one frame:
//
//	[8] magic+version  [4] CRC32C of the payload  payload
//
// Each kind contributes its magic, file suffix, counter pair and a
// payload codec; framing, validation and the load path are shared
// (encodeFile, decodeFile, load, store). Every payload decoder bounds
// each count it reads by the bytes remaining before it allocates, so a
// record whose CRC happens to match hostile lengths is a miss, never a
// panic or a runaway allocation. The trace store keeps its own format
// (traceio.go): it is mmap-backed and chunk-checksummed.
const frameHeaderSize = 12

// framedKind is one framed record format.
type framedKind[T any] struct {
	magic   [8]byte
	suffix  string
	lookups int                     // index of the kind's counter pair in Store.hits/misses
	encode  func(v *T) []byte       // payload encoder
	decode  func(payload []byte) *T // payload decoder; nil rejects the record
}

// encodeFile returns the complete file image of v: magic, payload
// CRC32C, payload.
func (k *framedKind[T]) encodeFile(v *T) []byte {
	payload := k.encode(v)
	buf := make([]byte, 0, frameHeaderSize+len(payload))
	buf = append(buf, k.magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// decodeFile checks a file image's magic and payload CRC, then decodes
// the payload. It returns nil when the image is short, carries another
// kind's magic, fails its CRC or fails the payload decoder.
func (k *framedKind[T]) decodeFile(buf []byte) *T {
	if len(buf) < frameHeaderSize || [8]byte(buf[:8]) != k.magic {
		return nil
	}
	payload := buf[frameHeaderSize:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[8:12]) {
		return nil
	}
	return k.decode(payload)
}

// load is the read path of every framed kind: read the entry, unframe,
// decode. A missing file is a miss; a record that fails unframing or
// decoding is a miss that is dropped (deleted in read-write modes,
// counted either way) so the caller rewrites it. A hit counts its bytes
// and refreshes the entry's mtime for LRU eviction. The returned path
// names the file the entry was read from.
//
// Entries are read into an owned buffer, not through the mmap-backed
// readEntire: decoders copy everything out, and mappings are never
// unmapped (decoded traces alias theirs), so routing these
// high-frequency loads — one checkpoint restore per interval per sampled
// run — through mmap would leak a mapping per read until the kernel's
// vm.max_map_count is exhausted and the Go runtime aborts. An empty file
// reads as a corrupt entry, not a miss.
func (k *framedKind[T]) load(s *Store, key Key) (*T, string, bool) {
	if s == nil {
		return nil, "", false
	}
	path := s.path(key, k.suffix)
	buf, err := os.ReadFile(path)
	if err != nil {
		s.misses[k.lookups].Add(1)
		return nil, "", false
	}
	v := k.decodeFile(buf)
	if v == nil {
		s.drop(path)
		s.misses[k.lookups].Add(1)
		return nil, "", false
	}
	s.hits[k.lookups].Add(1)
	s.bytesRead.Add(int64(len(buf)))
	s.touch(path)
	return v, path, true
}

// store persists v under key (no-op for nil or read-only stores and nil
// records).
func (k *framedKind[T]) store(s *Store, key Key, v *T) {
	if !s.writable() || v == nil {
		return
	}
	s.publish(s.path(key, k.suffix), k.encodeFile(v))
}
