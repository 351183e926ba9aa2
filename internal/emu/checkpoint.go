package emu

import (
	"context"
	"fmt"

	"dmdp/internal/isa"
	"dmdp/internal/mem"
	"dmdp/internal/trace"
)

// Checkpoint is a restorable snapshot of architectural state at an
// instruction boundary. Its memory is stored as a delta: only the pages
// written since execution began, listed in Dirty. Restoring shares those
// pages over the pristine initial image, so every checkpoint is
// independently restorable (no chaining) and costs O(dirty pages)
// instead of O(instructions replayed).
type Checkpoint struct {
	// At is the number of instructions retired when the snapshot was
	// taken (the trace index of the next instruction to execute).
	At int64
	// PC and Regs are the architectural state.
	PC   uint32
	Regs [isa.NumArchRegs]uint32
	// Mem holds the memory at capture time. Its pages are shared
	// copy-on-write and nothing writes Mem, so they keep their content
	// while the emulator runs on. A snapshot's Mem is the emulator's
	// whole image; a decoded checkpoint's holds just the Dirty pages.
	Mem *mem.Image
	// Dirty lists, in ascending order, the base addresses of the pages
	// written since execution began.
	Dirty []uint32
}

// Snapshot captures the emulator's architectural state as a checkpoint.
// It copies no page: Mem is a copy-on-write clone of the emulator's
// image, so the emulator copies each page it writes afterwards before
// writing it, and Dirty lists the pages that are no longer the ones
// execution began with.
func (e *Emulator) Snapshot() *Checkpoint {
	return &Checkpoint{
		At: e.count, PC: e.PC, Regs: e.Regs,
		Mem: e.Mem.Clone(), Dirty: e.Mem.DirtySince(e.init),
	}
}

// Resume reconstructs an emulator mid-execution from a checkpoint taken
// by Snapshot during an earlier run of the same program, whose initial
// image init is: the checkpoint's dirty pages are shared over a clone of
// init, so a page is copied only when the resumed emulator writes it.
// Emulation is deterministic, so stepping the resumed emulator yields
// entries bit-identical to the original run from instruction ck.At
// onward. Resume only reads init and ck, and the emulator keeps init as
// the image its own snapshots list dirty pages against, so nothing may
// write init; any number of goroutines may resume from one checkpoint at
// once.
func Resume(p *isa.Program, init *mem.Image, ck *Checkpoint) *Emulator {
	img := init.Clone()
	for _, base := range ck.Dirty {
		img.SharePage(base, ck.Mem)
	}
	return &Emulator{Prog: p, Mem: img, Regs: ck.Regs, PC: ck.PC, count: ck.At, init: init}
}

// StepN executes n instructions discarding their trace entries — the
// fast-forward used to roll from a checkpoint to an interval start. The
// steps write into one scratch buffer.
func (e *Emulator) StepN(n int64) error {
	var scratch [128]trace.Entry
	for done := int64(0); done < n; {
		if e.halted {
			return fmt.Errorf("emu: halted after %d of %d fast-forward steps", done, n)
		}
		k, err := e.Step(scratch[:min(n-done, int64(len(scratch)))])
		done += int64(k)
		if err != nil {
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
