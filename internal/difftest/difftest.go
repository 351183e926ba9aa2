// Package difftest is the lockstep differential-verification harness: it
// retires the timing core against the architectural emulator
// instruction-by-instruction and reports any divergence through the
// core's structured SimError bundle.
//
// The protocol: the harness attaches a commit hook to the core
// (core.AttachCommitHook) and steps a fresh functional emulator once per
// retirement, checking
//
//  1. the retiring PC matches the emulator's PC,
//  2. the retiring instruction is the one the emulator decodes,
//  3. a retiring load's destination value (whatever the model's
//     communication mechanism produced — forwarding, cloaking,
//     predication, delaying, cache read) matches the architecturally
//     executed value,
//  4. a retiring store's (address, size, data) matches the emulator's,
//
// and, after the run, that the retirement count matches the emulator's
// instruction count and the committed memory image (including stores
// still pending in the store buffer) is byte-identical to the emulator's
// final memory. The hook fires before the core's built-in commit-time
// oracle, so the lockstep observer — not the oracle — is the component
// under test's first line of defense; injected value corruption
// (internal/faults) surfaces as an ErrLockstep divergence.
//
// Inputs come from internal/progen; a divergence carries the (seed,
// knobs) vector and can be delta-debugged down to a small runnable .s
// repro (see Minimize).
package difftest

import (
	"fmt"

	"dmdp/internal/asm"
	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/emu"
	"dmdp/internal/faults"
	"dmdp/internal/mem"
	"dmdp/internal/progen"
	"dmdp/internal/trace"
)

// Options configure a differential run.
type Options struct {
	Budget   int64          // dynamic instruction budget per program
	Models   []config.Model // nil = config.Models
	Faults   faults.Config  // zero value = no injection
	PhysRegs int            // physical register file size (0 = model default)
}

func (o Options) models() []config.Model {
	if len(o.Models) == 0 {
		return config.Models
	}
	return o.Models
}

func (o Options) config(m config.Model) config.Config {
	cfg := config.Default(m)
	if o.Faults != (faults.Config{}) {
		cfg = cfg.WithFaults(o.Faults)
	}
	if o.PhysRegs > 0 {
		cfg = cfg.WithPhysRegs(o.PhysRegs)
	}
	return cfg
}

// Divergence is one lockstep failure, carrying everything needed to
// reproduce it from the CLI: the generator coordinates, the model and
// the structured simulation error.
type Divergence struct {
	Seed   uint64
	Preset string
	Knobs  progen.Knobs
	Model  config.Model
	Source string
	Err    error // usually a *core.SimError (ErrLockstep or ErrOracle)
}

func (d *Divergence) String() string {
	return fmt.Sprintf("seed=%d preset=%s model=%s: %v", d.Seed, d.Preset, d.Model, d.Err)
}

// Bundle renders the divergence's full diagnostic.
func (d *Divergence) Bundle() string {
	hdr := fmt.Sprintf("difftest divergence: seed=%d preset=%s knobs={%s} model=%s\n",
		d.Seed, d.Preset, d.Knobs, d.Model)
	if se, ok := d.Err.(*core.SimError); ok {
		return hdr + se.Bundle()
	}
	return hdr + d.Err.Error() + "\n"
}

// Lockstep runs one timing simulation with the emulator in lockstep.
// The returned error is a *core.SimError on any divergence the commit
// hook or the core's own hardening layer detected; the final-state
// checks (retire count, committed memory) are folded into the same
// error type so callers render one kind of bundle.
func Lockstep(cfg config.Config, tr *trace.Trace) (*core.Stats, error) {
	em := emu.New(tr.Prog)
	c, err := core.New(cfg, tr)
	if err != nil {
		return nil, err
	}
	c.AttachCommitHook(func(rec core.CommitRecord) error {
		if em.Halted() {
			return fmt.Errorf("emulator already halted, core retires idx %d pc 0x%08x", rec.Idx, rec.PC)
		}
		if em.PC != rec.PC {
			return fmt.Errorf("PC diverged: core retires 0x%08x, emulator at 0x%08x", rec.PC, em.PC)
		}
		in, _ := em.Prog.InstrAt(em.PC)
		var one [1]trace.Entry
		if _, err := em.Step(one[:]); err != nil {
			return fmt.Errorf("emulator fault at pc 0x%08x: %v", rec.PC, err)
		}
		if in != rec.Instr {
			return fmt.Errorf("instruction diverged at pc 0x%08x: core retires %q, emulator executes %q",
				rec.PC, rec.Instr, in)
		}
		ent := &one[0]
		if rec.IsLoad && ent.Value != rec.Value {
			return fmt.Errorf("load %s retired value 0x%08x, architectural value 0x%08x",
				rec.Instr, rec.Value, ent.Value)
		}
		if rec.IsStore && (ent.Addr != rec.Addr || ent.Size != rec.Size || ent.Value != rec.Value) {
			return fmt.Errorf("store %s retired (addr 0x%08x size %d value 0x%08x), architectural (addr 0x%08x size %d value 0x%08x)",
				rec.Instr, rec.Addr, rec.Size, rec.Value, ent.Addr, ent.Size, ent.Value)
		}
		return nil
	})
	st, err := c.Run()
	if err != nil {
		return st, err
	}
	if got, want := em.InstrCount(), int64(len(tr.Entries)); got != want {
		return st, &core.SimError{
			Kind: core.ErrLockstep, Idx: -1, Model: cfg.Model.String(),
			Retired: want, TraceLen: len(tr.Entries),
			Msg: fmt.Sprintf("lockstep: emulator executed %d instructions, core retired %d", got, want),
		}
	}
	if msg := diffImages(c.CommittedImage(), em.Mem); msg != "" {
		return st, &core.SimError{
			Kind: core.ErrLockstep, Idx: -1, Model: cfg.Model.String(),
			Retired: int64(len(tr.Entries)), TraceLen: len(tr.Entries),
			Msg: "lockstep: final memory diverged: " + msg,
		}
	}
	return st, nil
}

// diffImages compares two sparse memory images byte-for-byte; a page
// missing on one side compares as zero-filled. Returns "" when equal,
// else a description of the first differing word.
func diffImages(got, want *mem.Image) string {
	var zero [mem.PageSize]byte
	pages := map[uint32][2]*[mem.PageSize]byte{}
	got.ForEachPage(func(base uint32, data *[mem.PageSize]byte) {
		p := pages[base]
		p[0] = data
		pages[base] = p
	})
	want.ForEachPage(func(base uint32, data *[mem.PageSize]byte) {
		p := pages[base]
		p[1] = data
		pages[base] = p
	})
	for base, p := range pages {
		g, w := p[0], p[1]
		if g == nil {
			g = &zero
		}
		if w == nil {
			w = &zero
		}
		if *g == *w {
			continue
		}
		for i := range g {
			if g[i] != w[i] {
				a := (base + uint32(i)) &^ 3
				return fmt.Sprintf("word 0x%08x: committed 0x%08x, architectural 0x%08x",
					a, got.Word(a), want.Word(a))
			}
		}
	}
	return ""
}

// RunSeed generates the program for (seed, knobs), builds its trace and
// runs every model in lockstep. It returns one canonical digest line per
// model ("seed=N model=M <stats digest>", fixed order — the aggregate
// sweep digest is built from these, so output is schedule-independent),
// the first divergence (nil if clean), and a non-nil err only for
// infrastructure failures (the generated program failed to assemble or
// trace — a generator bug, not a core divergence).
func RunSeed(seed uint64, preset string, k progen.Knobs, opt Options) ([]string, *Divergence, error) {
	src := progen.Generate(seed, k)
	tr, err := BuildTrace(src, opt.Budget)
	if err != nil {
		return nil, nil, fmt.Errorf("seed %d (%s): %w", seed, preset, err)
	}
	lines := make([]string, 0, len(opt.models()))
	for _, m := range opt.models() {
		st, err := Lockstep(opt.config(m), tr)
		if err != nil {
			return nil, &Divergence{Seed: seed, Preset: preset, Knobs: k, Model: m, Source: src, Err: err}, nil
		}
		lines = append(lines, fmt.Sprintf("seed=%d preset=%s model=%s %s", seed, preset, m, st.DigestLine()))
	}
	return lines, nil, nil
}

// BuildTrace assembles source and collects its architectural trace.
func BuildTrace(src string, budget int64) (*trace.Trace, error) {
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("assemble: %w", err)
	}
	tr, err := emu.Run(prog, budget)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return tr, nil
}
