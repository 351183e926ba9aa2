package core

import (
	"dmdp/internal/isa"
	"dmdp/internal/mem"
)

// This file is the core's commit-stream tap: an external observer (the
// difftest lockstep harness) can watch every retiring instruction and
// veto it. The hook fires after the retire log is updated and — crucially
// — after fault injection has had its chance to corrupt the value, but
// before the built-in oracle runs, so an attached observer is the first
// line of defense and sees exactly what the machine is about to commit.

// CommitRecord is one retiring instruction as seen by the commit stream.
// For loads, Value is the value the timing core actually obtained
// (speculatively, via whichever communication mechanism the model used);
// for stores it is the data value entering the store buffer. Addr and
// Size are meaningful only when IsLoad or IsStore is set.
type CommitRecord struct {
	Idx     int   // trace index of the retiring instruction
	Seq     int64 // dynamic sequence number (monotone across squashes)
	Retired int64 // 1-based retirement count including this instruction
	PC      uint32
	Instr   isa.Instr
	IsLoad  bool
	IsStore bool
	Addr    uint32
	Size    uint8
	Value   uint32

	// Load provenance (multicore semantic coupling): the cycle the value
	// was obtained, whether the retire-stage SVW check forced a
	// re-execution (so Value was re-read with the store buffer drained),
	// and whether the value came from the cache (vs an in-flight store).
	ValueAt    int64
	Reexecuted bool
	FromCache  bool
}

// CommitHook observes a retiring instruction. A non-nil error vetoes the
// retirement: the core raises a structured ErrLockstep SimError carrying
// the full diagnostic bundle and stops the simulation.
type CommitHook func(CommitRecord) error

// AttachCommitHook registers fn as the commit-stream observer. Call
// before Run; only one hook is supported (later calls replace earlier
// ones).
func (c *Core) AttachCommitHook(fn CommitHook) { c.commitHook = fn }

// notifyCommit builds the CommitRecord for a retiring instruction and
// runs the attached hook. Called from retireCommon after recordRetire.
func (c *Core) notifyCommit(in *inst) {
	if c.commitHook == nil || c.simErr != nil {
		return
	}
	e := in.e
	rec := CommitRecord{
		Idx:     in.idx,
		Seq:     in.seq,
		Retired: c.retired,
		PC:      e.PC,
		Instr:   in.d.instr,
	}
	switch {
	case in.isLoad():
		rec.IsLoad = true
		rec.Addr, rec.Size, rec.Value = e.Addr, e.Size, in.gotValue
		rec.ValueAt = in.valueAt
		rec.Reexecuted = in.didReexec
		rec.FromCache = in.readCache
	case in.isStore():
		rec.IsStore = true
		rec.Addr, rec.Size, rec.Value = e.Addr, e.Size, e.Value
	}
	if err := c.commitHook(rec); err != nil {
		got, want := rec.Value, e.Value
		c.fail(&SimError{
			Kind: ErrLockstep, Idx: in.idx, PC: e.PC, Disasm: in.d.instr.String(),
			Got: got, Want: want,
			Msg: "lockstep: " + err.Error(),
		})
	}
}

// CommittedImage returns a snapshot of architectural memory as of the
// retire stream: the committed image plus any stores still pending in
// the store buffer (the core can finish with an undrained SB; retired
// stores are architecturally committed even before their bytes land).
// Pending entries are applied in retirement order, which matches program
// order for same-word writes under both TSO and RMO drain policies.
func (c *Core) CommittedImage() *mem.Image {
	img := c.image.Clone()
	for i := range c.sb.entries {
		e := &c.sb.entries[i]
		img.Write(e.addr, e.size, e.value)
	}
	return img
}
