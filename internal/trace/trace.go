// Package trace defines the dynamic instruction trace produced by the
// functional emulator and the ground-truth memory dependence analysis the
// timing models consume.
//
// The timing simulation is trace-driven over the architecturally correct
// path: speculation outcomes (would this cloaked/predicated/delayed load
// have obtained the right value?) are decided exactly by combining the
// per-entry ground truth computed here with the committed-memory image the
// core maintains cycle by cycle.
package trace

import (
	"math"
	"math/bits"

	"dmdp/internal/isa"
	"dmdp/internal/mem"
)

// Overlap classifies how the youngest store writing any byte of a load
// relates to the load's accessed bytes.
type Overlap uint8

// Overlap classes.
const (
	OverlapNone    Overlap = iota // no store in the trace wrote these bytes
	OverlapFull                   // the youngest colliding store covers every load byte
	OverlapPartial                // it covers only part of the load
)

func (o Overlap) String() string {
	switch o {
	case OverlapFull:
		return "full"
	case OverlapPartial:
		return "partial"
	}
	return "none"
}

// Entry is one dynamic instruction on the correct path. It holds only
// what can differ between two executions of one static instruction: the
// registers and immediates follow from the PC and Trace.Prog, and the
// store and load sequence numbers from the trace's index (Trace.Seq), so
// they are Trace methods, not fields. That keeps a record at 24 bytes.
//
// The field order is load-bearing: entries are stored verbatim (little
// endian, no padding between records) by the persistent artifact cache,
// so the layout below IS the trace store's on-disk record format.
// Reordering, resizing or adding a field changes the format — bump
// internal/artifact's trace format version when touching this struct
// (the artifact package fingerprints the compiled layout at init and
// falls back to cache misses if it ever deviates).
type Entry struct {
	PC uint32

	// Memory (valid for loads and stores).
	Addr  uint32
	Value uint32 // loads: final register result; stores: raw data register value

	// Target is the architectural next PC.
	Target uint32

	// DepStore is the store sequence number of the youngest store that
	// wrote any byte this load reads (0 if the location was never stored
	// to in this trace; filled by Analyze for loads).
	DepStore uint32

	// Op is the opcode of the instruction at PC.
	Op isa.Op
	// Size is the access width in bytes (1, 2 or 4).
	Size uint8
	// DepOverlap classifies the byte overlap with DepStore (filled by
	// Analyze for loads).
	DepOverlap Overlap
	// Flags holds FlagTaken and FlagSilent.
	Flags uint8
}

// Entry flag bits.
const (
	// FlagTaken marks a taken branch or jump.
	FlagTaken uint8 = 1 << iota
	// FlagSilent marks a store that rewrote identical bytes.
	FlagSilent
)

// MaxEntries is the most entries a trace may hold, so that every store
// sequence number, DepStore and the index's prefix counts fit in 32 bits.
const MaxEntries = math.MaxUint32

// Taken reports whether a branch or jump was taken.
func (e *Entry) Taken() bool { return e.Flags&FlagTaken != 0 }

// Silent reports whether a store rewrote identical bytes.
func (e *Entry) Silent() bool { return e.Flags&FlagSilent != 0 }

// IsLoad reports whether the entry is a load.
func (e *Entry) IsLoad() bool { return e.Op.IsLoad() }

// IsStore reports whether the entry is a store.
func (e *Entry) IsStore() bool { return e.Op.IsStore() }

// WordAddr returns the word-aligned address of the access.
func (e *Entry) WordAddr() uint32 { return e.Addr &^ 3 }

// BAB returns the 4-bit byte-access-bits mask of the access within its
// word (paper §IV-D): bit i set means byte i of the word is accessed.
func (e *Entry) BAB() uint8 {
	return BAB(e.Addr, uint32(e.Size))
}

// BAB computes byte access bits for an access of size bytes at addr.
func BAB(addr, size uint32) uint8 {
	return uint8((1<<size - 1) << (addr & 3))
}

// SeqBlock is one block of the sequence-number index: it covers entries
// 64b to 64b+63 of the trace. A store's sequence number is the stores
// before its block plus the stores before it within the block, one
// popcount of the block's mask.
type SeqBlock struct {
	// Stores and Loads have bit i set when entry 64b+i is a store or a
	// load.
	Stores, Loads uint64
	// StoresBefore and LoadsBefore count the stores and loads in all
	// earlier blocks.
	StoresBefore, LoadsBefore uint32
}

// Trace is a collected correct-path execution.
type Trace struct {
	// Prog is the program the entries execute. Every trace with entries
	// carries it: registers and immediates come from Prog.Text.
	Prog    *isa.Program
	Entries []Entry
	// Seq is the sequence-number index Analyze builds, one block per 64
	// entries.
	Seq []SeqBlock
	// InitMem is the memory image before the first instruction executed;
	// the timing core clones it as its committed-state image.
	InitMem *mem.Image
	// Stores counts dynamic stores; Loads counts dynamic loads.
	Stores, Loads int64
	// HitHalt reports whether execution reached HALT before the budget.
	HitHalt bool
}

// SeqBlocks is the number of index blocks that cover n entries.
func SeqBlocks(n int) int { return (n + 63) / 64 }

// IndexConsistent reports whether the sequence-number index agrees with
// itself: one block per 64 entries, each block's prefix counts equal to
// the bits of the blocks before it, no entry both a store and a load, no
// bit past the last entry, and totals equal to Stores and Loads. It
// reads the blocks only, so it is the check a trace read from outside
// the process can afford; with it passing, no index lookup can land
// past the trace.
func (t *Trace) IndexConsistent() bool {
	if len(t.Seq) != SeqBlocks(len(t.Entries)) {
		return false
	}
	var stores, loads int64
	for i := range t.Seq {
		b := &t.Seq[i]
		if int64(b.StoresBefore) != stores || int64(b.LoadsBefore) != loads || b.Stores&b.Loads != 0 {
			return false
		}
		stores += int64(bits.OnesCount64(b.Stores))
		loads += int64(bits.OnesCount64(b.Loads))
	}
	if tail := len(t.Entries) & 63; tail != 0 {
		if b := &t.Seq[len(t.Seq)-1]; (b.Stores|b.Loads)>>tail != 0 {
			return false
		}
	}
	return stores == t.Stores && loads == t.Loads
}

// below masks the bits of a block below entry i's bit.
func below(i int) uint64 { return 1<<(uint(i)&63) - 1 }

// StoresBefore counts the dynamic stores that precede entry i. On the
// correct path it equals the store sequence number (SSN) the rename
// stage has assigned when entry i renames. Analyze must have run.
func (t *Trace) StoresBefore(i int) int64 {
	b := &t.Seq[i>>6]
	return int64(b.StoresBefore) + int64(bits.OnesCount64(b.Stores&below(i)))
}

// LoadsBefore counts the dynamic loads that precede entry i (the load
// sequence number space of the Fire-and-Forget model).
func (t *Trace) LoadsBefore(i int) int64 {
	b := &t.Seq[i>>6]
	return int64(b.LoadsBefore) + int64(bits.OnesCount64(b.Loads&below(i)))
}

// StoreSeq returns entry i's 1-based store sequence number (0 for
// non-stores). On the correct path it equals the SSN the core assigns.
func (t *Trace) StoreSeq(i int) int64 {
	if t.Seq[i>>6].Stores>>(uint(i)&63)&1 == 0 {
		return 0
	}
	return t.StoresBefore(i) + 1
}

// LoadSeq returns entry i's 1-based load sequence number (0 for
// non-loads).
func (t *Trace) LoadSeq(i int) int64 {
	if t.Seq[i>>6].Loads>>(uint(i)&63)&1 == 0 {
		return 0
	}
	return t.LoadsBefore(i) + 1
}

// DepDist returns StoresBefore(i) - DepStore, the store-distance ground
// truth the Store Distance Predictor tries to learn (0 means the
// colliding store is the most recent store, or that the load has no
// colliding store at all).
func (t *Trace) DepDist(i int) int64 {
	dep := t.Entries[i].DepStore
	if dep == 0 {
		return 0
	}
	return t.StoresBefore(i) - int64(dep)
}

// Stepper produces trace entries one instruction at a time (implemented by
// the functional emulator). StepInto executes one instruction and writes
// its entry to *e, the slot where the caller keeps it: CollectCtx and
// ForEachChunk hand it the next trace or ring slot, so each entry is
// written once and never copied. A failed step leaves the stepper's state
// and *e unchanged, and the builders do not count that slot.
type Stepper interface {
	StepInto(e *Entry) error
	Halted() bool
}

// Collect runs s for at most max instructions (HALT stops earlier),
// analyzes memory dependences and returns the trace. InitMem must be a
// snapshot of memory before the first Step. Collect cannot be canceled;
// use CollectCtx when a deadline may fire mid-build.
func Collect(s Stepper, max int64, prog *isa.Program, initMem *mem.Image) (*Trace, error) {
	return CollectCtx(nil, s, max, prog, initMem)
}

// Analyze computes, for every load, the youngest store writing any of its
// bytes and the overlap class, the store and load counts, and the
// sequence-number index Seq. The silent flag is expected to have been
// set by the emulator. Analyze is idempotent.
func (t *Trace) Analyze() {
	// lastWriter maps word address -> per-byte youngest writer StoreSeq.
	lastWriter := make(map[uint32]*[4]uint32)
	writerFor := func(word uint32) *[4]uint32 {
		w := lastWriter[word]
		if w == nil {
			w = new([4]uint32)
			lastWriter[word] = w
		}
		return w
	}
	seq := make([]SeqBlock, SeqBlocks(len(t.Entries)))
	var blk *SeqBlock
	var storeSeq, loadSeq uint32
	for i := range t.Entries {
		e := &t.Entries[i]
		if i&63 == 0 {
			blk = &seq[i>>6]
			blk.StoresBefore, blk.LoadsBefore = storeSeq, loadSeq
		}
		switch {
		case e.IsStore():
			blk.Stores |= 1 << (uint(i) & 63)
			storeSeq++
			w := writerFor(e.WordAddr())
			for b := uint32(0); b < uint32(e.Size); b++ {
				w[(e.Addr+b)&3] = storeSeq
			}
		case e.IsLoad():
			blk.Loads |= 1 << (uint(i) & 63)
			loadSeq++
			e.DepStore, e.DepOverlap = 0, OverlapNone
			w := lastWriter[e.WordAddr()]
			if w == nil {
				continue
			}
			// The youngest writer of any load byte, and whether it
			// wrote every one of them. Full forwarding requires the
			// store to *contain* the load (no forwarding from a
			// narrower store even if it is the youngest writer of
			// every load byte — that can only happen when sizes match).
			youngest, full := uint32(0), true
			for b := uint32(0); b < uint32(e.Size); b++ {
				ws := w[(e.Addr+b)&3]
				if b > 0 && ws != youngest {
					full = false
				}
				if ws > youngest {
					youngest = ws
				}
			}
			if youngest == 0 {
				continue
			}
			e.DepStore = youngest
			if full {
				e.DepOverlap = OverlapFull
			} else {
				e.DepOverlap = OverlapPartial
			}
		}
	}
	t.Seq = seq
	t.Stores, t.Loads = int64(storeSeq), int64(loadSeq)
}

// EntryBySeq returns the index of the store with the given store
// sequence number: a binary search over the index blocks, then a select
// within the block's store mask. Returns -1 when the seq is not in the
// trace.
func (t *Trace) EntryBySeq(seq int64) int {
	if seq <= 0 || seq > t.Stores {
		return -1
	}
	// The last block whose preceding stores leave seq inside it.
	lo, hi := 0, len(t.Seq)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int64(t.Seq[mid].StoresBefore) < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return -1
	}
	b := lo - 1
	mask := t.Seq[b].Stores
	for k := seq - int64(t.Seq[b].StoresBefore) - 1; k > 0 && mask != 0; k-- {
		mask &= mask - 1 // drop the lowest store
	}
	if mask == 0 {
		return -1
	}
	return b<<6 + bits.TrailingZeros64(mask)
}

// ForwardValue computes the register value a load obtains when the store
// entry st forwards to load entry ld (full containment assumed). It
// applies the word-relative shift and the load's masking and sign/zero
// extension (paper §IV-D).
func ForwardValue(st, ld *Entry) uint32 {
	// Materialize the store's bytes within its word, then extract the
	// load's bytes.
	var word [4]byte
	for b := uint32(0); b < uint32(st.Size); b++ {
		word[(st.Addr+b)&3] = byte(st.Value >> (8 * b))
	}
	var v uint32
	for b := uint32(0); b < uint32(ld.Size); b++ {
		v |= uint32(word[(ld.Addr+b)&3]) << (8 * b)
	}
	return ExtendLoad(ld.Op, v)
}

// ExtendLoad applies the sign/zero extension of a load opcode to the raw
// bytes v.
func ExtendLoad(op isa.Op, v uint32) uint32 {
	switch op {
	case isa.OpLB:
		return uint32(int32(int8(v)))
	case isa.OpLBU:
		return v & 0xff
	case isa.OpLH:
		return uint32(int32(int16(v)))
	case isa.OpLHU:
		return v & 0xffff
	}
	return v
}
