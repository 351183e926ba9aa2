package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"dmdp/internal/emu"
	"dmdp/internal/isa"
	"dmdp/internal/mem"
)

// Checkpoint store format v1 ("DMDPCKP1", framed — see frame.go).
//
//	payload:
//	  [8] at  [4] pc  [1] has-arch = 1  [3] zero pad
//	  NumArchRegs x [4] regs
//	  [4] page count, then per page (ascending base address):
//	    [4] base  [PageSize] content
//
// Checkpoints are memory-image deltas plus architectural state; they are
// independently restorable, so corruption of one checkpoint only costs a
// longer roll-forward from an earlier one (or from the program start).
// The has-arch byte is always 1: older builds also wrote image-only
// checkpoints (0) under the same keys, which carry no registers, so the
// decoder rejects any other value and such a file is a dropped miss.
var checkpointMagic = [8]byte{'D', 'M', 'D', 'P', 'C', 'K', 'P', '1'}

// Plan store format v1 ("DMDPPLN1", framed — see frame.go).
//
//	payload:
//	  [8] chunkLen  [8] total  [8] warmup  [1] hitHalt  [7] zero pad
//	  [8] interval count, then per interval: [8] start [8] end [8] weight bits
var planMagic = [8]byte{'D', 'M', 'D', 'P', 'P', 'L', 'N', '1'}

// Plans share the checkpoint counters: a plan hit without its
// checkpoints still re-streams, so the two degrade together.
var (
	checkpointKind = framedKind[emu.Checkpoint]{magic: checkpointMagic, suffix: ".ckpt",
		lookups: checkpointLookups, encode: encodeCheckpoint, decode: decodeCheckpoint}
	planKind = framedKind[PlanRecord]{magic: planMagic, suffix: ".plan",
		lookups: checkpointLookups, encode: encodePlan, decode: decodePlan}
)

// Payload sizes: each kind's fixed prefix and its per-page or
// per-interval record.
const (
	checkpointFixed = 8 + 4 + 4 + 4*isa.NumArchRegs + 4
	checkpointPage  = 4 + mem.PageSize
	planFixed       = 40
	planInterval    = 24
)

// CheckpointKey derives the checkpoint-store key for the architectural
// state at instruction index start of the trace identified by traceKey
// (which already encodes workload, budget and trace format).
func CheckpointKey(traceKey Key, start int64) Key {
	h := sha256.New()
	h.Write([]byte("dmdp-ckpt\x00"))
	h.Write(checkpointMagic[:])
	h.Write(traceKey[:])
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(start))
	h.Write(b[:])
	var k Key
	h.Sum(k[:0])
	return k
}

// PlanKey derives the plan-store key for a sampling plan computed over
// the trace identified by traceKey with the given sampling spec string
// and planner algorithm version.
func PlanKey(traceKey Key, spec string, version int64) Key {
	h := sha256.New()
	h.Write([]byte("dmdp-plan\x00"))
	h.Write(planMagic[:])
	h.Write(traceKey[:])
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(version))
	h.Write(b[:])
	h.Write([]byte(spec))
	var k Key
	h.Sum(k[:0])
	return k
}

// encodeCheckpoint hands over the checkpoint's dirty pages as parts of
// the payload, straight from its memory image: the fixed prefix, then
// per page its base and a view of its content. Nothing is joined; the
// store writes the parts through one buffer.
func encodeCheckpoint(ck *emu.Checkpoint) [][]byte {
	fixed := make([]byte, 0, checkpointFixed)
	fixed = binary.LittleEndian.AppendUint64(fixed, uint64(ck.At))
	fixed = binary.LittleEndian.AppendUint32(fixed, ck.PC)
	fixed = append(fixed, 1, 0, 0, 0)
	for _, r := range ck.Regs {
		fixed = binary.LittleEndian.AppendUint32(fixed, r)
	}
	bases := make([]byte, 0, 4*len(ck.Dirty))
	parts := make([][]byte, 1, 1+2*len(ck.Dirty))
	for _, base := range ck.Dirty {
		if pg, ok := ck.Mem.Page(base); ok {
			bases = binary.LittleEndian.AppendUint32(bases, base)
			parts = append(parts, bases[len(bases)-4:], pg[:])
		}
	}
	parts[0] = binary.LittleEndian.AppendUint32(fixed, uint32(len(bases)/4))
	return parts
}

// decodeCheckpoint copies each stored page once, into the checkpoint's
// own image; Resume then shares those pages instead of copying them
// again.
func decodeCheckpoint(payload []byte) *emu.Checkpoint {
	if len(payload) < checkpointFixed || payload[12] != 1 {
		return nil
	}
	ck := &emu.Checkpoint{
		At: int64(binary.LittleEndian.Uint64(payload[0:8])),
		PC: binary.LittleEndian.Uint32(payload[8:12]),
	}
	off := 16
	for i := range ck.Regs {
		ck.Regs[i] = binary.LittleEndian.Uint32(payload[off : off+4])
		off += 4
	}
	n := int(binary.LittleEndian.Uint32(payload[off : off+4]))
	off += 4
	if n > (len(payload)-checkpointFixed)/checkpointPage || len(payload) != checkpointFixed+n*checkpointPage {
		return nil
	}
	ck.Mem = mem.NewImage()
	ck.Dirty = make([]uint32, n)
	for i := range ck.Dirty {
		base := binary.LittleEndian.Uint32(payload[off : off+4])
		off += 4
		ck.Mem.SetPage(base, (*[mem.PageSize]byte)(payload[off:off+mem.PageSize]))
		off += mem.PageSize
		ck.Dirty[i] = base
	}
	return ck
}

// LoadCheckpoint fetches the checkpoint stored under key, or (nil, false)
// on any miss. Corrupt entries are deleted in read-write modes and count
// as misses — the sampling layer degrades to rolling forward from an
// earlier checkpoint (ultimately re-simulation from the start).
func (s *Store) LoadCheckpoint(key Key) (*emu.Checkpoint, bool) {
	ck, _, ok := checkpointKind.load(s, key)
	return ck, ok
}

// StoreCheckpoint persists ck under key (no-op for nil or read-only
// stores).
func (s *Store) StoreCheckpoint(key Key, ck *emu.Checkpoint) { checkpointKind.store(s, key, ck) }

// PlanInterval is one sampled interval of a persisted plan, in trace
// entry indices. The artifact layer stores plans in this neutral form so
// it does not depend on the sampling package (which imports artifact).
type PlanInterval struct {
	Start, End int64
	Weight     float64
}

// PlanRecord is a persisted sampling plan plus the stream facts needed
// to reuse it without re-streaming the trace.
type PlanRecord struct {
	// ChunkLen is the BBV chunk length the plan was computed over.
	ChunkLen int64
	// Total is the number of instructions the plan's stream executed
	// (may be below the budget when the program halted).
	Total int64
	// Warmup is the per-interval warm-up length the plan was built for.
	Warmup int64
	// HitHalt reports whether the stream reached HALT before the budget.
	HitHalt   bool
	Intervals []PlanInterval
}

func encodePlan(p *PlanRecord) [][]byte {
	payload := make([]byte, 0, planFixed+planInterval*len(p.Intervals))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(p.ChunkLen))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(p.Total))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(p.Warmup))
	hitHalt := byte(0)
	if p.HitHalt {
		hitHalt = 1
	}
	payload = append(payload, hitHalt, 0, 0, 0, 0, 0, 0, 0)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(len(p.Intervals)))
	for _, iv := range p.Intervals {
		payload = binary.LittleEndian.AppendUint64(payload, uint64(iv.Start))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(iv.End))
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(iv.Weight))
	}
	return [][]byte{payload}
}

func decodePlan(payload []byte) *PlanRecord {
	if len(payload) < planFixed {
		return nil
	}
	p := &PlanRecord{
		ChunkLen: int64(binary.LittleEndian.Uint64(payload[0:8])),
		Total:    int64(binary.LittleEndian.Uint64(payload[8:16])),
		Warmup:   int64(binary.LittleEndian.Uint64(payload[16:24])),
		HitHalt:  payload[24] == 1,
	}
	// Bound the count before multiplying: 24*n wraps for n near 2^61,
	// and a wrapped product can pass the length check and then size an
	// impossible allocation.
	n := binary.LittleEndian.Uint64(payload[32:40])
	if n > uint64(len(payload)-planFixed)/planInterval || len(payload) != planFixed+planInterval*int(n) {
		return nil
	}
	p.Intervals = make([]PlanInterval, n)
	for i := range p.Intervals {
		off := planFixed + planInterval*i
		p.Intervals[i] = PlanInterval{
			Start:  int64(binary.LittleEndian.Uint64(payload[off : off+8])),
			End:    int64(binary.LittleEndian.Uint64(payload[off+8 : off+16])),
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(payload[off+16 : off+24])),
		}
	}
	return p
}

// LoadPlan fetches the sampling plan stored under key, or (nil, false)
// on any miss. Corrupt entries are deleted in read-write modes.
func (s *Store) LoadPlan(key Key) (*PlanRecord, bool) {
	p, _, ok := planKind.load(s, key)
	return p, ok
}

// StorePlan persists p under key (no-op for nil or read-only stores).
func (s *Store) StorePlan(key Key, p *PlanRecord) { planKind.store(s, key, p) }
