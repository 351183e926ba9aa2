// Command dmdpdbg is an interactive debugger for programs in the
// simulator's ISA: breakpoints, stepping, register/memory inspection and
// disassembly over the functional emulator.
//
// Usage:
//
//	dmdpdbg prog.s            # assembly source
//	dmdpdbg prog.dmo          # DMO1 binary object
//	dmdpdbg -bench hmmer      # debug a proxy benchmark
package main

import (
	"flag"
	"fmt"
	"os"

	"dmdp/internal/asm"
	"dmdp/internal/debug"
	"dmdp/internal/isa"
	"dmdp/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "debug a proxy benchmark instead of a file")
	flag.Parse()

	var p *isa.Program
	var err error
	switch {
	case *bench != "":
		s, ok := workload.Get(*bench)
		if !ok {
			fatal(fmt.Errorf("unknown benchmark %q", *bench))
		}
		p, err = s.Program()
	case flag.NArg() == 1:
		var data []byte
		if data, err = os.ReadFile(flag.Arg(0)); err == nil {
			p, err = asm.Load(data)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: dmdpdbg [-bench name] [file.s|file.dmo]")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	debug.New(p).Run(os.Stdin, os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmdpdbg:", err)
	os.Exit(1)
}
