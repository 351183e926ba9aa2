// Package debug implements the interactive debugger engine behind
// cmd/dmdpdbg: breakpoints, single-stepping, register and memory
// inspection, and disassembly over the functional emulator. The command
// interpreter reads/writes plain text so it is fully testable.
package debug

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"dmdp/internal/emu"
	"dmdp/internal/isa"
	"dmdp/internal/trace"
)

// Session is one debugging session over a program.
type Session struct {
	prog   *isa.Program
	e      *emu.Emulator
	breaks map[uint32]bool
	steps  int64
}

// New starts a session at the program's entry point.
func New(p *isa.Program) *Session {
	return &Session{prog: p, e: emu.New(p), breaks: make(map[uint32]bool)}
}

// Halted reports whether the program has executed HALT.
func (s *Session) Halted() bool { return s.e.Halted() }

// PC returns the current program counter.
func (s *Session) PC() uint32 { return s.e.PC }

// Steps returns the number of instructions executed so far.
func (s *Session) Steps() int64 { return s.steps }

// resolve parses an address: hex/decimal literal or program symbol.
func (s *Session) resolve(tok string) (uint32, error) {
	if v, err := strconv.ParseUint(tok, 0, 32); err == nil {
		return uint32(v), nil
	}
	if a, ok := s.prog.Symbols[tok]; ok {
		return a, nil
	}
	return 0, fmt.Errorf("debug: cannot resolve %q (not a number or symbol)", tok)
}

// step executes one instruction; returns false at HALT or on error.
func (s *Session) step(w io.Writer) bool {
	if s.e.Halted() {
		fmt.Fprintln(w, "program has halted")
		return false
	}
	var one [1]trace.Entry
	if _, err := s.e.Step(one[:]); err != nil {
		fmt.Fprintln(w, "fault:", err)
		return false
	}
	s.steps++
	return true
}

// Exec interprets one command line; quit reports that the session should
// end.
func (s *Session) Exec(line string, w io.Writer) (quit bool) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return false
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "q", "quit", "exit":
		return true
	case "h", "help":
		s.help(w)
	case "s", "step":
		n := int64(1)
		if len(args) > 0 {
			if v, err := strconv.ParseInt(args[0], 0, 64); err == nil && v > 0 {
				n = v
			}
		}
		for i := int64(0); i < n; i++ {
			if !s.step(w) {
				break
			}
		}
		s.printLocation(w)
	case "c", "continue":
		max := int64(1_000_000)
		if len(args) > 0 {
			if v, err := strconv.ParseInt(args[0], 0, 64); err == nil && v > 0 {
				max = v
			}
		}
		for i := int64(0); i < max; i++ {
			if !s.step(w) {
				break
			}
			if s.breaks[s.e.PC] {
				fmt.Fprintf(w, "breakpoint at 0x%08x\n", s.e.PC)
				break
			}
		}
		s.printLocation(w)
	case "b", "break":
		if len(args) != 1 {
			fmt.Fprintln(w, "usage: break <addr|symbol>")
			return false
		}
		addr, err := s.resolve(args[0])
		if err != nil {
			fmt.Fprintln(w, err)
			return false
		}
		s.breaks[addr] = true
		fmt.Fprintf(w, "breakpoint set at 0x%08x\n", addr)
	case "d", "delete":
		if len(args) != 1 {
			fmt.Fprintln(w, "usage: delete <addr|symbol>")
			return false
		}
		addr, err := s.resolve(args[0])
		if err != nil {
			fmt.Fprintln(w, err)
			return false
		}
		delete(s.breaks, addr)
		fmt.Fprintf(w, "breakpoint cleared at 0x%08x\n", addr)
	case "r", "regs":
		s.printRegs(w)
	case "m", "mem":
		if len(args) < 1 {
			fmt.Fprintln(w, "usage: mem <addr|symbol> [words]")
			return false
		}
		addr, err := s.resolve(args[0])
		if err != nil {
			fmt.Fprintln(w, err)
			return false
		}
		n := 4
		if len(args) > 1 {
			if v, err := strconv.Atoi(args[1]); err == nil && v > 0 && v <= 64 {
				n = v
			}
		}
		for i := 0; i < n; i++ {
			a := addr + uint32(4*i)
			fmt.Fprintf(w, "0x%08x: 0x%08x\n", a, s.e.Mem.Word(a))
		}
	case "x", "disasm":
		pc := s.e.PC
		if len(args) > 0 {
			a, err := s.resolve(args[0])
			if err != nil {
				fmt.Fprintln(w, err)
				return false
			}
			pc = a
		}
		n := 8
		if len(args) > 1 {
			if v, err := strconv.Atoi(args[1]); err == nil && v > 0 && v <= 64 {
				n = v
			}
		}
		for i := 0; i < n; i++ {
			a := pc + uint32(4*i)
			in, ok := s.prog.InstrAt(a)
			if !ok {
				break
			}
			marker := "  "
			if a == s.e.PC {
				marker = "=>"
			}
			fmt.Fprintf(w, "%s 0x%08x: %s\n", marker, a, in)
		}
	case "i", "info":
		fmt.Fprintf(w, "pc 0x%08x, %d instructions executed, halted=%v\n",
			s.e.PC, s.steps, s.e.Halted())
		if len(s.breaks) > 0 {
			var addrs []uint32
			for a := range s.breaks {
				addrs = append(addrs, a)
			}
			sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
			for _, a := range addrs {
				fmt.Fprintf(w, "breakpoint 0x%08x\n", a)
			}
		}
	case "reset":
		s.e = emu.New(s.prog)
		s.steps = 0
		fmt.Fprintln(w, "reset to entry")
	default:
		fmt.Fprintf(w, "unknown command %q (try help)\n", cmd)
	}
	return false
}

func (s *Session) printLocation(w io.Writer) {
	if s.e.Halted() {
		fmt.Fprintf(w, "[halted after %d instructions]\n", s.steps)
		return
	}
	if in, ok := s.prog.InstrAt(s.e.PC); ok {
		fmt.Fprintf(w, "=> 0x%08x: %s\n", s.e.PC, in)
	} else {
		fmt.Fprintf(w, "=> 0x%08x: <outside text>\n", s.e.PC)
	}
}

func (s *Session) printRegs(w io.Writer) {
	for r := 0; r < isa.NumArchRegs; r++ {
		fmt.Fprintf(w, "%-6s 0x%08x", isa.Reg(r), s.e.Regs[r])
		if (r+1)%4 == 0 {
			fmt.Fprintln(w)
		} else {
			fmt.Fprint(w, "  ")
		}
	}
	fmt.Fprintf(w, "pc     0x%08x\n", s.e.PC)
}

func (s *Session) help(w io.Writer) {
	fmt.Fprint(w, `commands:
  step [n] (s)        execute n instructions
  continue [max] (c)  run until a breakpoint, HALT, or max instructions
  break <a> (b)       set a breakpoint at an address or symbol
  delete <a> (d)      clear a breakpoint
  regs (r)            dump architectural registers
  mem <a> [words] (m) dump memory words
  disasm [a [n]] (x)  disassemble
  info (i)            session status
  reset               restart at entry
  quit (q)            leave
`)
}

// Run drives a read-eval-print loop until quit/EOF.
func (s *Session) Run(in io.Reader, out io.Writer) {
	sc := bufio.NewScanner(in)
	fmt.Fprintln(out, "dmdpdbg — type 'help' for commands")
	s.printLocation(out)
	for {
		fmt.Fprint(out, "(dbg) ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return
		}
		if s.Exec(sc.Text(), out) {
			return
		}
	}
}
