// Command dmdpasm assembles and disassembles programs in the simulator's
// MIPS-I-like ISA.
//
// Usage:
//
//	dmdpasm prog.s            # assemble, print encoded words + disassembly
//	dmdpasm -run prog.s       # assemble and execute functionally
//	dmdpasm -run -max 1000 prog.s
package main

import (
	"flag"
	"fmt"
	"os"

	"dmdp/internal/asm"
	"dmdp/internal/emu"
	"dmdp/internal/isa"
	"dmdp/internal/trace"
)

func main() {
	var (
		run = flag.Bool("run", false, "execute the program functionally after assembling")
		max = flag.Int64("max", 1_000_000, "instruction budget for -run")
		out = flag.String("o", "", "write a DMO1 binary object instead of printing")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dmdpasm [-run] [-max N] file.s")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	p, err := asm.Load(data)
	if err != nil {
		fatal(err)
	}

	if *out != "" {
		blob, err := p.MarshalBinary()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d instructions, %d data bytes, %d symbols\n",
			*out, len(p.Text), len(p.Data), len(p.Symbols))
		return
	}

	if !*run {
		fmt.Printf("# text @ 0x%08x, %d instructions; data @ 0x%08x, %d bytes; entry 0x%08x\n",
			p.TextBase, len(p.Text), p.DataBase, len(p.Data), p.Entry)
		for i, in := range p.Text {
			w, err := in.Encode()
			if err != nil {
				fatal(fmt.Errorf("instruction %d (%v): %w", i, in, err))
			}
			fmt.Printf("0x%08x: %08x  %s\n", p.TextBase+uint32(4*i), w, in)
		}
		return
	}

	e := emu.New(p)
	tr, err := trace.Collect(e, *max, p, e.Mem.Clone())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("executed %d instructions (halt=%v), %d loads, %d stores\n",
		len(tr.Entries), tr.HitHalt, tr.Loads, tr.Stores)
	fmt.Println("final registers:")
	for r := isa.Reg(0); r < isa.NumArchRegs; r++ {
		if e.Regs[r] != 0 {
			fmt.Printf("  %-6s = 0x%08x (%d)\n", r, e.Regs[r], int32(e.Regs[r]))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmdpasm:", err)
	os.Exit(1)
}
