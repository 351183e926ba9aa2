package emu

import (
	"context"
	"fmt"

	"dmdp/internal/isa"
	"dmdp/internal/mem"
	"dmdp/internal/trace"
)

// Checkpoint is a restorable snapshot of architectural state at an
// instruction boundary. The memory image is stored as a delta: only the
// pages dirtied since execution began, with their full content at capture
// time. Restoring overlays those pages on the pristine initial image, so
// every checkpoint is independently restorable (no chaining) and costs
// O(dirty pages) instead of O(instructions replayed).
type Checkpoint struct {
	// At is the number of instructions retired when the snapshot was
	// taken (the trace index of the next instruction to execute).
	At int64
	// PC and Regs are the architectural state.
	PC   uint32
	Regs [isa.NumArchRegs]uint32
	// Pages maps page base address -> page content at capture time, for
	// every page written since the initial image.
	Pages map[uint32]*[mem.PageSize]byte
}

// Snapshot captures the emulator's architectural state as a checkpoint.
// dirty lists the base addresses of the pages written since execution
// began (the caller tracks them from the store entries it has seen);
// bases whose page was never materialized are skipped.
func (e *Emulator) Snapshot(dirty []uint32) *Checkpoint {
	ck := &Checkpoint{
		At:    e.count,
		PC:    e.PC,
		Regs:  e.Regs,
		Pages: make(map[uint32]*[mem.PageSize]byte, len(dirty)),
	}
	for _, base := range dirty {
		if pg, ok := e.Mem.PageCopy(base); ok {
			ck.Pages[base] = pg
		}
	}
	return ck
}

// Resume reconstructs an emulator mid-execution from a checkpoint taken
// by Snapshot during an earlier run of the same program: the
// checkpoint's dirty pages overlay a clone of the initial image. Emulation
// is deterministic, so stepping the resumed emulator yields entries
// bit-identical to the original run from instruction ck.At onward.
func Resume(p *isa.Program, init *mem.Image, ck *Checkpoint) *Emulator {
	img := init.Clone()
	for base, pg := range ck.Pages {
		img.SetPage(base, pg)
	}
	return &Emulator{Prog: p, Mem: img, Regs: ck.Regs, PC: ck.PC, count: ck.At}
}

// StepN executes n instructions discarding their trace entries — the
// fast-forward used to roll from a checkpoint to an interval start. Every
// step writes into one scratch entry.
func (e *Emulator) StepN(n int64) error {
	var scratch trace.Entry
	for i := int64(0); i < n; i++ {
		if e.halted {
			return fmt.Errorf("emu: halted after %d of %d fast-forward steps", i, n)
		}
		if err := e.StepInto(&scratch); err != nil {
			return err
		}
	}
	return nil
}

// RunCtx is Run with cancellation: the build polls ctx periodically and
// aborts with a *trace.BuildCanceled error when it fires mid-build.
func RunCtx(ctx context.Context, p *isa.Program, max int64) (*trace.Trace, error) {
	e := New(p)
	init := e.Mem.Clone()
	return trace.CollectCtx(ctx, e, max, p, init)
}
