// Package emu implements the functional (architectural) emulator for the
// simulator's ISA. It is the golden model: it produces the correct-path
// dynamic trace that the timing cores replay, and its results are the
// reference against which speculative load values are verified.
package emu

import (
	"fmt"

	"dmdp/internal/isa"
	"dmdp/internal/mem"
	"dmdp/internal/trace"
)

// StackTop is the initial stack pointer (grows down).
const StackTop = 0x7fff_fff0

// Emulator executes a program architecturally, one instruction per Step.
type Emulator struct {
	Prog *isa.Program
	Mem  *mem.Image
	Regs [isa.NumArchRegs]uint32
	PC   uint32

	// init is the image execution began from, which nothing writes. Mem
	// shares its pages copy-on-write, so the pages of Mem that are not
	// init's are the pages written since (Snapshot's dirty list).
	init *mem.Image

	halted bool
	count  int64
}

// LoadImage returns the program's initial memory: a fresh image holding
// the data segment at its base.
func LoadImage(p *isa.Program) *mem.Image {
	m := mem.NewImage()
	m.SetBytes(p.DataBase, p.Data)
	return m
}

// New loads the program image into a fresh memory (LoadImage) and
// prepares the architectural state ($sp at StackTop, $gp at the data
// base).
func New(p *isa.Program) *Emulator {
	m := LoadImage(p)
	e := &Emulator{Prog: p, Mem: m, PC: p.Entry, init: m.Clone()}
	e.Regs[isa.SP] = StackTop
	e.Regs[isa.GP] = p.DataBase
	return e
}

// Halted reports whether HALT has executed.
func (e *Emulator) Halted() bool { return e.halted }

// InstrCount returns the number of retired instructions.
func (e *Emulator) InstrCount() int64 { return e.count }

// StepInto executes one instruction and writes its trace entry to *ent,
// the slot where the caller keeps it. The instruction semantics live in
// Exec; StepInto binds them to the emulator's private memory image and
// register file. On error the emulator's state and *ent are unchanged.
func (e *Emulator) StepInto(ent *trace.Entry) error {
	if e.halted {
		return fmt.Errorf("emu: step after halt")
	}
	in, ok := e.Prog.InstrAt(e.PC)
	if !ok {
		return fmt.Errorf("emu: PC 0x%08x outside text", e.PC)
	}
	if err := Exec(in, e.PC, &e.Regs, e.Mem, ent); err != nil {
		return err
	}
	if in.Op == isa.OpHALT {
		e.halted = true
	}
	e.PC = ent.Target
	e.count++
	return nil
}

// Step is StepInto returning the entry by value.
func (e *Emulator) Step() (ent trace.Entry, err error) {
	err = e.StepInto(&ent)
	return ent, err
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func divS(a, b uint32) uint32 {
	if b == 0 {
		return 0
	}
	return uint32(int64(int32(a)) / int64(int32(b)))
}

func remS(a, b uint32) uint32 {
	if b == 0 {
		return 0
	}
	return uint32(int64(int32(a)) % int64(int32(b)))
}

// Run assembles nothing: it simply executes the program for at most max
// instructions, collecting and analyzing the trace.
func Run(p *isa.Program, max int64) (*trace.Trace, error) {
	e := New(p)
	init := e.Mem.Clone()
	return trace.Collect(e, max, p, init)
}
