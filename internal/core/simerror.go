package core

import (
	"errors"
	"fmt"
	"strings"

	"dmdp/internal/isa"
)

// This file is the diagnostic side of the hardening layer: every internal
// failure the core can detect — a commit-time oracle divergence, a
// watchdog expiry, a sequence-number desync, a register refcount
// underflow — surfaces as a *SimError carrying the cycle, the faulting
// instruction, the last retired instructions and a pipeline occupancy
// snapshot, instead of a bare panic or a one-line fmt.Errorf.

// ErrKind classifies a structured simulation failure.
type ErrKind string

// Failure classes.
const (
	// ErrOracle: a retiring instruction's architectural effects diverged
	// from the golden trace.
	ErrOracle ErrKind = "oracle"
	// ErrWatchdog: the cycle budget ran out or retirement stalled past
	// the no-retire window.
	ErrWatchdog ErrKind = "watchdog"
	// ErrDesync: an internal sequence number (SSN/LSN) or uop ordering
	// invariant broke.
	ErrDesync ErrKind = "desync"
	// ErrRefcount: a physical register reference counter went negative.
	ErrRefcount ErrKind = "refcount"
	// ErrLockstep: an external commit-stream observer (the difftest
	// lockstep harness) rejected a retiring instruction.
	ErrLockstep ErrKind = "lockstep"
	// ErrCanceled: the run's context was cancelled (per-job deadline or
	// caller shutdown) — a scheduling decision, not a simulator defect.
	// Runners must not negative-cache it: the same inputs can succeed
	// under a longer deadline.
	ErrCanceled ErrKind = "canceled"
)

// Canceled reports whether err is (or wraps) a cancellation SimError.
func Canceled(err error) bool {
	var se *SimError
	return errors.As(err, &se) && se.Kind == ErrCanceled
}

// retireLogCap is the depth of the retired-instruction ring buffer kept
// for diagnostics (a power of two: the ring is indexed by mask).
const retireLogCap = 16

// RetireRecord is one recently retired instruction in a SimError.
type RetireRecord struct {
	Cycle  int64
	Idx    int // trace index
	PC     uint32
	Disasm string
	Value  uint32 // load result / store data (meaningful when IsMem)
	IsMem  bool
}

// PipeSnapshot captures pipeline occupancy at the moment of a failure.
type PipeSnapshot struct {
	ROB          int
	ROBHead      string // head instruction summary ("empty" when drained)
	IQ           int
	Ready        int
	Delayed      int
	StoreBuffer  int
	FreeRegs     int
	FetchQueue   int
	FetchIdx     int
	FetchStalled bool
}

// SimError is a structured simulation failure. Error() is a one-line
// summary; Bundle() renders the full diagnostic (last retired
// instructions, pipeline occupancy) for CLIs and failure tables.
type SimError struct {
	Kind  ErrKind
	Msg   string
	Model string

	Cycle    int64
	Retired  int64 // instructions retired when the failure was raised
	TraceLen int   // total instructions in the trace

	// Faulting instruction (Idx < 0 when no single instruction is at
	// fault, e.g. a watchdog expiry).
	Idx    int
	PC     uint32
	Disasm string

	// Oracle divergence values (valid for ErrOracle).
	Got, Want uint32

	LastRetired []RetireRecord // oldest first, up to retireLogCap entries
	Pipeline    PipeSnapshot
}

func (e *SimError) Error() string {
	loc := ""
	if e.Idx >= 0 {
		loc = fmt.Sprintf(" at idx %d pc 0x%x (%s)", e.Idx, e.PC, e.Disasm)
	}
	return fmt.Sprintf("core: %s%s, cycle %d, model %s: %s", e.Kind, loc, e.Cycle, e.Model, e.Msg)
}

// Bundle renders the multi-line diagnostic.
func (e *SimError) Bundle() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== simulation error: %s ===\n", e.Kind)
	fmt.Fprintf(&b, "%s\n", e.Error())
	fmt.Fprintf(&b, "retired %d/%d instructions\n", e.Retired, e.TraceLen)
	if e.Kind == ErrOracle || e.Kind == ErrLockstep {
		fmt.Fprintf(&b, "divergence: got 0x%08x, want 0x%08x\n", e.Got, e.Want)
	}
	p := e.Pipeline
	fmt.Fprintf(&b, "pipeline: rob=%d head={%s} iq=%d ready=%d delayed=%d sb=%d freeregs=%d fq=%d fetchidx=%d stalled=%v\n",
		p.ROB, p.ROBHead, p.IQ, p.Ready, p.Delayed, p.StoreBuffer, p.FreeRegs, p.FetchQueue, p.FetchIdx, p.FetchStalled)
	if len(e.LastRetired) > 0 {
		fmt.Fprintf(&b, "last %d retired instructions (oldest first):\n", len(e.LastRetired))
		fmt.Fprintf(&b, "  %8s %8s %10s  %s\n", "cycle", "idx", "pc", "instr")
		for _, r := range e.LastRetired {
			val := ""
			if r.IsMem {
				val = fmt.Sprintf("  value=0x%08x", r.Value)
			}
			fmt.Fprintf(&b, "  %8d %8d 0x%08x  %s%s\n", r.Cycle, r.Idx, r.PC, r.Disasm, val)
		}
	}
	return b.String()
}

// fail records the run's first structured failure, stamping it with the
// current cycle, retirement progress, the retired-instruction ring and a
// pipeline snapshot, and stops the simulation. Later failures in the
// same (already doomed) cycle are dropped.
func (c *Core) fail(e *SimError) {
	if c.simErr != nil {
		return
	}
	e.Model = c.cfg.Model.String()
	e.Cycle = c.now
	e.Retired = c.retired
	e.TraceLen = len(c.tr.Entries)
	e.LastRetired = c.retireTail()
	e.Pipeline = c.snapshot()
	c.simErr = e
	c.done = true
}

// retireEntry is one slot of the diagnostic ring buffer: only what the
// trace cannot reproduce. PC, disassembly and the memory flag are
// derived from the trace entry on the (cold) SimError path.
type retireEntry struct {
	cycle int64
	idx   int    // trace index
	value uint32 // load result / store data
}

// recordRetire appends in to the diagnostic ring buffer; call after
// c.retired has been incremented.
func (c *Core) recordRetire(in *inst) {
	r := retireEntry{cycle: c.now, idx: in.idx}
	switch in.class {
	case isa.ClassLoad:
		r.value = in.gotValue
	case isa.ClassStore:
		r.value = in.e.Value
	}
	c.retireLog[(c.retired-1)&(retireLogCap-1)] = r
}

// retireTail returns the ring buffer's contents oldest-first as
// RetireRecords, filling in what the trace entries hold.
func (c *Core) retireTail() []RetireRecord {
	n := c.retired
	if n > retireLogCap {
		n = retireLogCap
	}
	out := make([]RetireRecord, 0, n)
	for i := c.retired - n; i < c.retired; i++ {
		r := c.retireLog[i&(retireLogCap-1)]
		e := &c.tr.Entries[r.idx]
		out = append(out, RetireRecord{
			Cycle: r.cycle, Idx: r.idx, PC: e.PC, Disasm: c.disasm(e),
			Value: r.value, IsMem: e.IsLoad() || e.IsStore(),
		})
	}
	return out
}

// snapshot captures current pipeline occupancy.
func (c *Core) snapshot() PipeSnapshot {
	head := "empty"
	if !c.rob.empty() {
		h := c.rob.front()
		head = fmt.Sprintf("idx=%d %s pending=%d", h.idx, h.d.instr, h.pending)
	}
	return PipeSnapshot{
		ROB:          c.rob.len(),
		ROBHead:      head,
		IQ:           c.iqCount,
		Ready:        c.ready.Len(),
		Delayed:      len(c.delayed),
		StoreBuffer:  c.sb.len(),
		FreeRegs:     c.rf.freeCount(),
		FetchQueue:   c.fqLen,
		FetchIdx:     c.fetchIdx,
		FetchStalled: c.fetchStalled,
	}
}

// checkRefs surfaces a register refcount underflow recorded by the
// register file as a structured error attributed to the instruction
// whose release triggered it.
func (c *Core) checkRefs(idx int) {
	b := c.rf.badRef
	if b == nil {
		return
	}
	c.rf.badRef = nil
	e := &c.tr.Entries[idx]
	c.fail(&SimError{
		Kind: ErrRefcount, Idx: idx, PC: e.PC, Disasm: c.disasm(e),
		Msg: fmt.Sprintf("negative refcount on p%d (producers %d, consumers %d)", b.p, b.producers, b.consumers),
	})
}

// oracleRetireCheck is the commit-time oracle: the retiring instruction's
// architectural effects must match the golden trace entry. Loads must
// retire the golden value, stores must carry the golden sequence number,
// taken control ops must have steered fetch to the golden target, and a
// retired destination must be architecturally mapped to a live register.
// Call after retireCommon has updated the ARAT and the retire log.
func (c *Core) oracleRetireCheck(in *inst) {
	if c.simErr != nil {
		return
	}
	e := in.e
	c.stats.OracleChecks++
	switch {
	case in.isLoad():
		if in.gotValue != e.Value {
			c.fail(&SimError{
				Kind: ErrOracle, Idx: in.idx, PC: e.PC, Disasm: in.d.instr.String(),
				Got: in.gotValue, Want: e.Value,
				Msg: fmt.Sprintf("load retired value 0x%x, want 0x%x (cat %s)", in.gotValue, e.Value, in.cat),
			})
			return
		}
	case in.isStore():
		if want := c.tr.StoreSeq(in.idx); in.ssn != want {
			c.fail(&SimError{
				Kind: ErrOracle, Idx: in.idx, PC: e.PC, Disasm: in.d.instr.String(),
				Got: uint32(in.ssn), Want: uint32(want),
				Msg: fmt.Sprintf("store retired SSN %d, trace says %d", in.ssn, want),
			})
			return
		}
	}
	if e.Op.IsControl() && e.Taken() && in.idx+1 < len(c.tr.Entries) {
		if next := c.tr.Entries[in.idx+1].PC; next != e.Target {
			c.fail(&SimError{
				Kind: ErrOracle, Idx: in.idx, PC: e.PC, Disasm: in.d.instr.String(),
				Got: next, Want: e.Target,
				Msg: fmt.Sprintf("taken control op followed by pc 0x%x, golden target 0x%x", next, e.Target),
			})
			return
		}
	}
	if in.destLog >= 0 {
		if c.rf.arat[in.destLog] != in.destPhys || c.rf.regs[in.destPhys].free {
			c.fail(&SimError{
				Kind: ErrOracle, Idx: in.idx, PC: e.PC, Disasm: in.d.instr.String(),
				Msg: fmt.Sprintf("retired writeback to r%d not architecturally mapped to live p%d", in.destLog, in.destPhys),
			})
		}
	}
}
