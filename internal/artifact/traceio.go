package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"unsafe"

	"dmdp/internal/emu"
	"dmdp/internal/isa"
	"dmdp/internal/trace"
)

// Trace store format v3 ("DMDPTRC3", framed — see frame.go). Little
// endian throughout.
//
//	payload:
//	  [8]  entry count     [8] stores     [8] loads
//	  [1]  hitHalt         [7] zero padding
//	  program section:
//	    [4] textBase  [4] entry  [4] dataBase
//	    [4] text len (instrs)  [4] data len (bytes)  [4] symbol count
//	    text: len × 12 bytes (Op Rd Rs Rt, i32 imm, u32 target)
//	    data: raw bytes
//	    symbols, sorted by name: per symbol [4] name len, name bytes, [4] addr
//	  [0..7] zero padding to an 8-byte file offset (the frame header counts)
//	  entries: count × 24 bytes — trace.Entry verbatim
//	  index: ceil(count/64) × 24 bytes — trace.SeqBlock verbatim
//
// The entries and index sections are the in-memory []trace.Entry and
// []trace.SeqBlock layouts, so encoding hands over two unsafe byte views
// of the trace's own slices as payload parts (stored and verified
// without a copy) and decoding is two pointer casts into the mapped
// file: no per-entry work for 500k records. Both start 8-aligned from
// the file start, and a mapping starts on a page, so the casts are
// aligned. The decoder checks
// the index against itself (Trace.IndexConsistent), a pass over one
// block per 64 entries.
//
// The file holds no initial memory image. Every stored trace comes from
// emu.Run or emu.RunCtx, whose InitMem is the program's data segment as
// the emulator loads it, so decode rebuilds it with emu.LoadImage and
// the data segment is stored once, in the program section.
//
// TraceKey hashes the magic and the layout fingerprint of the compiled
// trace.Entry and trace.SeqBlock (entryFingerprint): a build whose
// layout differs (new field, different offsets, big-endian target)
// reads and writes other keys, and files of an older format (DMDPTRC1
// and DMDPTRC2, which kept a header of their own and an init-memory
// section) live under other keys and age out through LRU eviction.
// Symbols are sorted so identical traces always produce identical bytes
// despite Go's randomized map iteration.
var traceMagic = [8]byte{'D', 'M', 'D', 'P', 'T', 'R', 'C', '3'}

const (
	entrySize    = int(unsafe.Sizeof(trace.Entry{}))
	seqBlockSize = int(unsafe.Sizeof(trace.SeqBlock{}))
	traceFixed   = 4 * 8
)

var traceKind = framedKind[trace.Trace]{
	magic: traceMagic, suffix: ".trace", lookups: traceLookups, mapped: true,
	encode: encodeTrace, decode: decodeTrace,
}

// TraceKey derives the trace-store key for a workload (identified by the
// SHA-256 of its generated source, see workload.Spec.SourceHash) at an
// instruction budget. The trace format version and the compiled entry
// layout are part of the hash.
func TraceKey(sourceHash [sha256.Size]byte, budget int64) Key {
	h := sha256.New()
	h.Write([]byte("dmdp-trace\x00"))
	h.Write(traceMagic[:])
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], layoutFingerprint)
	h.Write(b[:4])
	h.Write(sourceHash[:])
	binary.LittleEndian.PutUint64(b[:], uint64(budget))
	h.Write(b[:])
	var k Key
	h.Sum(k[:0])
	return k
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

// entriesPad returns the zero padding that puts the entries section,
// after a payload prefix of n bytes, on an 8-byte file offset.
func entriesPad(n int) int { return (8 - (frameHeaderSize+n)%8) % 8 }

// encodeTrace returns tr's v3 payload as parts — counters, program
// section and padding, then byte views of the entries and index — or nil
// when the trace cannot be represented: no program, an index that does
// not cover the entries (Analyze has not run), or 32-bit section lengths
// that would overflow (belt and braces).
func encodeTrace(tr *trace.Trace) [][]byte {
	p := tr.Prog
	if p == nil || len(p.Text) > 1<<28 || len(p.Data) > 1<<30 ||
		len(tr.Seq) != trace.SeqBlocks(len(tr.Entries)) {
		return nil
	}
	symNames := make([]string, 0, len(p.Symbols))
	symBytes := 0
	for name := range p.Symbols {
		symNames = append(symNames, name)
		symBytes += 8 + len(name)
	}
	sortStrings(symNames)

	prefix := traceFixed + 6*4 + len(p.Text)*12 + len(p.Data) + symBytes

	buf := make([]byte, 0, prefix+entriesPad(prefix))
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

	buf = append(buf, make([]byte, entriesPad(len(buf)))...)
	if len(tr.Entries) == 0 {
		return [][]byte{buf}
	}
	return [][]byte{buf,
		unsafe.Slice((*byte)(unsafe.Pointer(&tr.Entries[0])), len(tr.Entries)*entrySize),
		unsafe.Slice((*byte)(unsafe.Pointer(&tr.Seq[0])), len(tr.Seq)*seqBlockSize),
	}
}

// decodeTrace parses a v3 payload. The returned trace's Entries and Seq
// slices alias p (zero-copy), so p must stay reachable — and unmodified
// — for the trace's lifetime; mapped files are mapped privately so even
// a stray write cannot reach the file. InitMem is rebuilt from the
// program (emu.LoadImage). Any structural problem (short payload,
// lengths that disagree with its size, an index that contradicts itself
// or the trace's store and load counts) returns nil: the caller treats
// it as a miss.
func decodeTrace(p []byte) (tr *trace.Trace) {
	// The checksum makes accidental corruption unreachable below, but a
	// payload whose checksum happens to match inconsistent section
	// lengths must degrade to a miss, not an index panic.
	defer func() {
		if recover() != nil {
			tr = nil
		}
	}()
	if len(p) < traceFixed {
		return nil
	}
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

	off += entriesPad(off)
	if entryCount > trace.MaxEntries {
		return nil
	}
	n := int(entryCount)
	blocks := trace.SeqBlocks(n)
	if n*entrySize+blocks*seqBlockSize != len(p)-off {
		return nil
	}
	tr = &trace.Trace{
		Prog: prog, InitMem: emu.LoadImage(prog),
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

// Trace is the get-or-build path for one trace (see get): a hit returns
// the stored trace, a miss calls build and stores the trace it returns,
// and a verify-mode hit builds the trace again and compares encodings.
// bench names the workload in a verify error. The trace must come from
// emu.Run or emu.RunCtx (see the format notes above). A returned hit
// aliases a private file mapping that stays live for the process
// lifetime, and callers must treat it as read-only.
func (s *Store) Trace(key Key, bench string, build func() (*trace.Trace, error)) (*trace.Trace, error) {
	return get(s, &traceKind, key, bench, "trace", build)
}

// LoadTrace fetches the trace stored under key, or (nil, false) on any
// miss — absent, corrupt, truncated or foreign-format entries all read
// as misses (corrupt ones are deleted in read-write modes so the caller
// rewrites them). Reloading a file this store already decoded returns
// the same *trace.Trace.
func (s *Store) LoadTrace(key Key) (*trace.Trace, bool) {
	tr, _, ok := traceKind.load(s, key)
	return tr, ok
}

// StoreTrace persists tr under key (no-op for nil or read-only stores,
// or for traces the format cannot hold).
func (s *Store) StoreTrace(key Key, tr *trace.Trace) { traceKind.store(s, key, tr) }
