package artifact

import (
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"dmdp/internal/isa"
	"dmdp/internal/mem"
	"dmdp/internal/trace"
)

// Trace store format v2 ("DMDPTRC2"). Little endian throughout.
//
//	header (16 bytes, excluded from the checksum):
//	  [8]  magic+version  "DMDPTRC2"
//	  [4]  layout fingerprint of the compiled trace.Entry and
//	       trace.SeqBlock (see entryFingerprint)
//	  [4]  payload checksum (see payloadChecksum: chunked CRC32C)
//	payload:
//	  [8]  entry count     [8] stores     [8] loads
//	  [1]  hitHalt         [7] zero padding (keeps the payload 8-aligned)
//	  program section:
//	    [4] textBase  [4] entry  [4] dataBase
//	    [4] text len (instrs)  [4] data len (bytes)  [4] symbol count
//	    text: len × 12 bytes (Op Rd Rs Rt, i32 imm, u32 target)
//	    data: raw bytes
//	    symbols, sorted by name: per symbol [4] name len, name bytes, [4] addr
//	  init-memory section:
//	    [4] page count, then per page (ascending base): [4] base, 4096 bytes
//	  [0..7] zero padding to an 8-byte boundary
//	  entries: count × 24 bytes — trace.Entry verbatim
//	  index: ceil(count/64) × 24 bytes — trace.SeqBlock verbatim
//
// The entries and index sections are the in-memory []trace.Entry and
// []trace.SeqBlock layouts, so encoding is two unsafe slice views and
// decoding is two pointer casts into the mapped (or read) file: no
// per-entry work for 500k records. 24-byte records keep the index
// 8-aligned. The decoder checks the index against itself
// (Trace.IndexConsistent), a pass over one block per 64 entries. The
// layout fingerprint binds files to the exact compiled structs — a
// build whose layout differs (new field, different offsets, big-endian
// target) computes a different fingerprint, sees every existing file as
// a miss, and rewrites it. v1 files ("DMDPTRC1", 56-byte records with
// the sequence numbers inline) live under other keys, since TraceKey
// hashes the magic; one read under a v2 key fails the magic check and
// is rewritten. Symbols and pages are sorted so identical traces always
// produce identical bytes despite Go's randomized map iteration.
var traceMagic = [8]byte{'D', 'M', 'D', 'P', 'T', 'R', 'C', '2'}

const (
	traceHeaderSize = 16
	entrySize       = int(unsafe.Sizeof(trace.Entry{}))
	seqBlockSize    = int(unsafe.Sizeof(trace.SeqBlock{}))
	traceSuffix     = ".trace"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcChunkSize is the unit of the trace payload checksum. Multi-chunk
// payloads are checksummed per chunk so decode can verify on all cores.
const crcChunkSize = 1 << 22 // 4 MiB

// payloadChecksum is the trace-format integrity check: the CRC32C of
// each 4 MiB chunk, folded by a CRC32C over the little-endian chunk
// CRCs. Single-chunk payloads degenerate to a plain CRC32C. Any flipped
// bit changes its chunk's CRC and therefore the folded value, so the
// detection strength matches a whole-payload CRC — but the chunks
// verify in parallel, which keeps a trace-store hit an order of
// magnitude cheaper than rebuilding the trace even though the hit
// rereads tens of megabytes. The fold is deterministic (chunk order is
// positional), so identical payloads always store identical checksums.
func payloadChecksum(p []byte) uint32 {
	n := (len(p) + crcChunkSize - 1) / crcChunkSize
	if n <= 1 {
		return crc32.Checksum(p, crcTable)
	}
	sums := make([]byte, 4*n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Single-CPU hosts skip the goroutine machinery: same chunking,
		// same folded value, no scheduler overhead.
		for i := 0; i < n; i++ {
			lo := i * crcChunkSize
			hi := lo + crcChunkSize
			if hi > len(p) {
				hi = len(p)
			}
			binary.LittleEndian.PutUint32(sums[4*i:],
				crc32.Checksum(p[lo:hi], crcTable))
		}
		return crc32.Checksum(sums, crcTable)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				lo := i * crcChunkSize
				hi := lo + crcChunkSize
				if hi > len(p) {
					hi = len(p)
				}
				binary.LittleEndian.PutUint32(sums[4*i:],
					crc32.Checksum(p[lo:hi], crcTable))
			}
		}()
	}
	wg.Wait()
	return crc32.Checksum(sums, crcTable)
}

// entryFingerprint hashes the compiled layouts of trace.Entry and
// trace.SeqBlock — sizes and the offset of every field, plus a
// host-endianness probe — into 32 bits. It changes whenever the raw
// record or index format would.
func entryFingerprint() uint32 {
	var e trace.Entry
	var b trace.SeqBlock
	probe := [4]byte{}
	binary.NativeEndian.PutUint32(probe[:], 0x01020304)
	vals := []uint64{
		uint64(unsafe.Sizeof(e)),
		uint64(unsafe.Offsetof(e.PC)),
		uint64(unsafe.Offsetof(e.Addr)),
		uint64(unsafe.Offsetof(e.Value)),
		uint64(unsafe.Offsetof(e.Target)),
		uint64(unsafe.Offsetof(e.DepStore)),
		uint64(unsafe.Offsetof(e.Op)),
		uint64(unsafe.Offsetof(e.Size)),
		uint64(unsafe.Offsetof(e.DepOverlap)),
		uint64(unsafe.Offsetof(e.Flags)),
		uint64(unsafe.Sizeof(b)),
		uint64(unsafe.Offsetof(b.Stores)),
		uint64(unsafe.Offsetof(b.Loads)),
		uint64(unsafe.Offsetof(b.StoresBefore)),
		uint64(unsafe.Offsetof(b.LoadsBefore)),
		uint64(binary.LittleEndian.Uint32(probe[:])),
	}
	buf := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return crc32.Checksum(buf, crcTable)
}

var layoutFingerprint = entryFingerprint()

// encodeTrace serializes tr into the v2 format. Returns nil when the
// trace cannot be represented: no program, an index that does not cover
// the entries (Analyze has not run), or 32-bit section lengths that
// would overflow (belt and braces).
func encodeTrace(tr *trace.Trace) []byte {
	p := tr.Prog
	if p == nil || len(p.Text) > 1<<28 || len(p.Data) > 1<<30 ||
		len(tr.Seq) != trace.SeqBlocks(len(tr.Entries)) {
		return nil
	}
	pageCount := 0
	if tr.InitMem != nil {
		pageCount = tr.InitMem.Pages()
	}

	symNames := make([]string, 0, len(p.Symbols))
	symBytes := 0
	for name := range p.Symbols {
		symNames = append(symNames, name)
		symBytes += 8 + len(name)
	}
	sortStrings(symNames)

	progSize := 6*4 + len(p.Text)*12 + len(p.Data) + symBytes
	memSize := 4 + pageCount*(4+mem.PageSize)
	prefix := 3*8 + 8 + progSize + memSize
	pad := (8 - prefix%8) % 8
	total := traceHeaderSize + prefix + pad + len(tr.Entries)*entrySize + len(tr.Seq)*seqBlockSize

	buf := make([]byte, 0, total)
	buf = append(buf, traceMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, layoutFingerprint)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC patched below

	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(tr.Entries)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(tr.Stores))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(tr.Loads))
	var flags [8]byte
	if tr.HitHalt {
		flags[0] = 1
	}
	buf = append(buf, flags[:]...)

	buf = binary.LittleEndian.AppendUint32(buf, p.TextBase)
	buf = binary.LittleEndian.AppendUint32(buf, p.Entry)
	buf = binary.LittleEndian.AppendUint32(buf, p.DataBase)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Text)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Data)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(symNames)))
	for _, in := range p.Text {
		buf = append(buf, byte(in.Op), byte(in.Rd), byte(in.Rs), byte(in.Rt))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(in.Imm))
		buf = binary.LittleEndian.AppendUint32(buf, in.Target)
	}
	buf = append(buf, p.Data...)
	for _, name := range symNames {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(name)))
		buf = append(buf, name...)
		buf = binary.LittleEndian.AppendUint32(buf, p.Symbols[name])
	}

	buf = binary.LittleEndian.AppendUint32(buf, uint32(pageCount))
	if tr.InitMem != nil {
		tr.InitMem.ForEachPage(func(base uint32, data *[mem.PageSize]byte) {
			buf = binary.LittleEndian.AppendUint32(buf, base)
			buf = append(buf, data[:]...)
		})
	}

	for len(buf)%8 != 0 {
		buf = append(buf, 0)
	}
	if len(tr.Entries) > 0 {
		buf = append(buf, unsafe.Slice((*byte)(unsafe.Pointer(&tr.Entries[0])),
			len(tr.Entries)*entrySize)...)
		buf = append(buf, unsafe.Slice((*byte)(unsafe.Pointer(&tr.Seq[0])),
			len(tr.Seq)*seqBlockSize)...)
	}

	crc := payloadChecksum(buf[traceHeaderSize:])
	binary.LittleEndian.PutUint32(buf[12:16], crc)
	return buf
}

// decodeTrace parses a v2 file image. The returned trace's Entries and
// Seq slices alias buf (zero-copy), so buf must stay reachable — and
// unmodified — for the trace's lifetime; mmap-backed buffers are mapped
// privately so even a stray write cannot reach the file. Any structural
// problem (short file, bad magic, foreign layout, checksum mismatch,
// lengths that disagree with the file size, an index that contradicts
// itself or the trace's store and load counts) returns nil: the caller
// treats it as a miss.
func decodeTrace(buf []byte) (tr *trace.Trace) {
	// The CRC makes accidental corruption unreachable below, but a file
	// whose stored CRC happens to match inconsistent section lengths
	// must degrade to a miss, not an index panic.
	defer func() {
		if recover() != nil {
			tr = nil
		}
	}()
	if len(buf) < traceHeaderSize+4*8 {
		return nil
	}
	if [8]byte(buf[:8]) != traceMagic {
		return nil
	}
	if binary.LittleEndian.Uint32(buf[8:12]) != layoutFingerprint {
		return nil
	}
	wantCRC := binary.LittleEndian.Uint32(buf[12:16])
	if payloadChecksum(buf[traceHeaderSize:]) != wantCRC {
		return nil
	}

	p := buf[traceHeaderSize:]
	off := 0
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(p[off:])
		off += 8
		return v
	}
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(p[off:])
		off += 4
		return v
	}

	entryCount := u64()
	stores := int64(u64())
	loads := int64(u64())
	hitHalt := p[off] == 1
	off += 8

	prog := &isa.Program{}
	prog.TextBase = u32()
	prog.Entry = u32()
	prog.DataBase = u32()
	textLen := int(u32())
	dataLen := int(u32())
	symCount := int(u32())
	if textLen < 0 || dataLen < 0 || symCount < 0 ||
		off+textLen*12+dataLen > len(p) {
		return nil
	}
	prog.Text = make([]isa.Instr, textLen)
	for i := range prog.Text {
		prog.Text[i] = isa.Instr{
			Op: isa.Op(p[off]), Rd: isa.Reg(p[off+1]),
			Rs: isa.Reg(p[off+2]), Rt: isa.Reg(p[off+3]),
			Imm:    int32(binary.LittleEndian.Uint32(p[off+4:])),
			Target: binary.LittleEndian.Uint32(p[off+8:]),
		}
		off += 12
	}
	prog.Data = append([]byte(nil), p[off:off+dataLen]...)
	off += dataLen
	if symCount > (len(p)-off)/8 {
		// Each symbol occupies at least 8 bytes; a count the remaining
		// payload cannot hold is corruption. Checking before the make
		// keeps a hostile count from pre-sizing a multi-gigabyte map.
		return nil
	}
	prog.Symbols = make(map[string]uint32, symCount)
	for i := 0; i < symCount; i++ {
		if off+4 > len(p) {
			return nil
		}
		nameLen := int(u32())
		if nameLen < 0 || off+nameLen+4 > len(p) {
			return nil
		}
		name := string(p[off : off+nameLen])
		off += nameLen
		prog.Symbols[name] = u32()
	}

	if off+4 > len(p) {
		return nil
	}
	pageCount := int(u32())
	img := mem.NewImage()
	for i := 0; i < pageCount; i++ {
		if off+4+mem.PageSize > len(p) {
			return nil
		}
		base := u32()
		img.SetPage(base, (*[mem.PageSize]byte)(p[off:off+mem.PageSize]))
		off += mem.PageSize
	}

	off += (8 - off%8) % 8
	if entryCount > trace.MaxEntries {
		return nil
	}
	n := int(entryCount)
	blocks := trace.SeqBlocks(n)
	if n*entrySize+blocks*seqBlockSize != len(p)-off {
		return nil
	}
	tr = &trace.Trace{
		Prog: prog, InitMem: img,
		Stores: stores, Loads: loads, HitHalt: hitHalt,
	}
	if n > 0 {
		tr.Entries = castSection[trace.Entry](p[off:], n)
		tr.Seq = castSection[trace.SeqBlock](p[off+n*entrySize:], blocks)
	}
	if !tr.IndexConsistent() {
		return nil
	}
	return tr
}

// castSection views the first n records of b as a []T. A heap buffer
// (portable read path) is not guaranteed to land aligned for T; it is
// copied once instead of cast.
func castSection[T any](b []byte, n int) []T {
	var zero T
	if uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(zero) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), n*int(unsafe.Sizeof(zero))), b)
	return out
}

// sortStrings is an allocation-light insertion sort (symbol tables are
// small and nearly sorted).
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// loadedTrace is one memoized decoded trace: the trace and the identity
// of the file it was decoded (and checksum-verified) from.
type loadedTrace struct {
	id fileID
	tr *trace.Trace
}

// remember records tr as the decoded trace for key, tagged with the
// file's current (post-touch) identity.
func (s *Store) remember(key Key, path string, tr *trace.Trace) {
	id, ok := statID(path)
	if !ok {
		return
	}
	s.loadedMu.Lock()
	if s.loaded == nil {
		s.loaded = make(map[Key]loadedTrace)
	}
	s.loaded[key] = loadedTrace{id: id, tr: tr}
	s.loadedMu.Unlock()
}

// LoadTrace fetches the trace stored under key, or (nil, false) on any
// miss — absent, corrupt, truncated or foreign-format entries all read
// as misses (corrupt ones are deleted in read-write modes so the caller
// rewrites them). The returned trace aliases a private file mapping that
// stays live for the process lifetime, and callers must treat it as
// read-only: reloading a file this process already decoded (same
// device, inode, size and mtime) returns the same *trace.Trace — one
// mapping and one checksum pass per distinct file content, which is
// what keeps a trace-store hit orders of magnitude cheaper than
// rebuilding the trace.
func (s *Store) LoadTrace(key Key) (*trace.Trace, bool) {
	if s == nil {
		return nil, false
	}
	path := s.path(key, traceSuffix)
	if id, ok := statID(path); ok {
		s.loadedMu.Lock()
		m, hit := s.loaded[key]
		s.loadedMu.Unlock()
		if hit && m.id == id {
			s.hits[traceLookups].Add(1)
			s.touch(path)
			s.remember(key, path, m.tr) // refresh the post-touch mtime
			return m.tr, true
		}
	}
	buf, ok := readEntire(path)
	if !ok {
		s.misses[traceLookups].Add(1)
		return nil, false
	}
	tr := decodeTrace(buf)
	if tr == nil {
		s.drop(path)
		s.misses[traceLookups].Add(1)
		return nil, false
	}
	s.hits[traceLookups].Add(1)
	s.bytesRead.Add(int64(len(buf)))
	s.touch(path)
	s.remember(key, path, tr)
	return tr, true
}

// Trace is the get-or-build path for one trace: a hit returns the
// stored trace (see LoadTrace), and a miss calls build, stores the
// trace it returns and returns it. A failed build is returned and
// nothing is stored. A nil store always builds.
func (s *Store) Trace(key Key, build func() (*trace.Trace, error)) (*trace.Trace, error) {
	if tr, ok := s.LoadTrace(key); ok {
		return tr, nil
	}
	tr, err := build()
	if err != nil {
		return nil, err
	}
	s.StoreTrace(key, tr)
	return tr, nil
}

// StoreTrace persists tr under key (no-op for nil or read-only stores,
// or for traces the format cannot hold).
func (s *Store) StoreTrace(key Key, tr *trace.Trace) {
	if !s.writable() || tr == nil {
		return
	}
	if buf := encodeTrace(tr); buf != nil {
		s.publish(s.path(key, traceSuffix), buf)
	}
}
