// Package asm implements a two-pass assembler for the simulator's
// MIPS-I-like ISA. It supports .text/.data sections, labels, the usual
// data directives, and a small set of pseudo-instructions (li, la, move,
// b, beqz, bnez). Workload generators emit assembly source; this package
// turns it into an isa.Program.
package asm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"dmdp/internal/isa"
)

// Options configures section placement.
type Options struct {
	TextBase uint32 // default 0x0040_0000
	DataBase uint32 // default 0x1000_0000
}

// DefaultOptions mirror the conventional MIPS memory layout.
var DefaultOptions = Options{TextBase: 0x0040_0000, DataBase: 0x1000_0000}

// Assemble assembles src with DefaultOptions.
func Assemble(src string) (*isa.Program, error) {
	return AssembleWithOptions(src, DefaultOptions)
}

// Load turns a program file's bytes into a program: a DMO1 object
// (isa.IsObjectFile) is decoded, anything else is assembled as source
// text.
func Load(data []byte) (*isa.Program, error) {
	if isa.IsObjectFile(data) {
		return isa.UnmarshalProgram(data)
	}
	return Assemble(string(data))
}

// Error describes an assembly failure with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type section int

const (
	secText section = iota
	secData
)

// item is a parsed statement awaiting pass-2 resolution.
type item struct {
	line     int
	mnemonic string
	operands []string
	addr     uint32 // assigned in pass 1
	size     uint32 // bytes
	sec      section
}

type assembler struct {
	opt     Options
	symbols map[string]uint32
	items   []item
	text    []isa.Instr
	data    []byte
}

// AssembleWithOptions assembles src into a Program.
func AssembleWithOptions(src string, opt Options) (*isa.Program, error) {
	a := &assembler{opt: opt, symbols: make(map[string]uint32)}
	if err := a.pass1(src); err != nil {
		return nil, err
	}
	if err := a.pass2(); err != nil {
		return nil, err
	}
	entry := opt.TextBase
	if e, ok := a.symbols["main"]; ok {
		entry = e
	}
	return &isa.Program{
		TextBase: opt.TextBase,
		Text:     a.text,
		DataBase: opt.DataBase,
		Data:     a.data,
		Entry:    entry,
		Symbols:  a.symbols,
	}, nil
}

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// mayRept reports whether src holds ".rept" or ".endr" in any case:
// only then can expandRept change the source or reject it.
func mayRept(src string) bool {
	for i := strings.IndexByte(src, '.'); i >= 0; {
		w := src[i+1:]
		if len(w) >= 4 && (strings.EqualFold(w[:4], "rept") || strings.EqualFold(w[:4], "endr")) {
			return true
		}
		j := strings.IndexByte(w, '.')
		if j < 0 {
			return false
		}
		i += 1 + j
	}
	return false
}

// expandRept rewrites .rept N / .endr blocks by textual repetition,
// keeping original line numbers for diagnostics (each copied line keeps
// its source line). Nesting is supported.
func expandRept(src string) (string, error) {
	type frame struct {
		count int
		lines []string
		start int
	}
	var out []string
	var stack []frame
	emit := func(l string) {
		if len(stack) > 0 {
			stack[len(stack)-1].lines = append(stack[len(stack)-1].lines, l)
			return
		}
		out = append(out, l)
	}
	for lineNo, raw := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(raw)
		low := strings.ToLower(trimmed)
		switch {
		case strings.HasPrefix(low, ".rept"):
			nStr := strings.TrimSpace(trimmed[len(".rept"):])
			n, err := parseNum(nStr)
			if err != nil || n < 0 || n > 1<<20 {
				return "", errf(lineNo+1, "bad .rept count %q", nStr)
			}
			stack = append(stack, frame{count: int(n), start: lineNo + 1})
		case low == ".endr":
			if len(stack) == 0 {
				return "", errf(lineNo+1, ".endr without .rept")
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for i := 0; i < f.count; i++ {
				for _, l := range f.lines {
					emit(l)
				}
			}
		default:
			emit(raw)
		}
	}
	if len(stack) > 0 {
		return "", errf(stack[len(stack)-1].start, ".rept without .endr")
	}
	return strings.Join(out, "\n"), nil
}

// pass1 parses statements, expands pseudo-instruction sizes and assigns
// addresses to every item and label.
func (a *assembler) pass1(src string) error {
	if mayRept(src) {
		var err error
		if src, err = expandRept(src); err != nil {
			return err
		}
	}
	lines := strings.Split(src, "\n")
	a.items = make([]item, 0, len(lines)) // at most one item per line
	sec := secText
	textAddr := a.opt.TextBase
	dataAddr := a.opt.DataBase

	cur := func() *uint32 {
		if sec == secText {
			return &textAddr
		}
		return &dataAddr
	}

	for lineNo, raw := range lines {
		line := raw
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		// Peel off any labels.
		for {
			i := strings.Index(line, ":")
			if i < 0 {
				break
			}
			label := strings.TrimSpace(line[:i])
			if !validLabel(label) {
				return errf(lineNo+1, "invalid label %q", label)
			}
			if _, dup := a.symbols[label]; dup {
				return errf(lineNo+1, "duplicate label %q", label)
			}
			a.symbols[label] = *cur()
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}

		mnemonic, rest, _ := strings.Cut(line, " ")
		mnemonic = strings.ToLower(strings.TrimSpace(mnemonic))
		operands := splitOperands(rest)

		if strings.HasPrefix(mnemonic, ".") {
			switch mnemonic {
			case ".text":
				sec = secText
				continue
			case ".data":
				sec = secData
				continue
			case ".globl", ".global", ".ent", ".end", ".set":
				continue // accepted and ignored
			case ".equ", ".eqv":
				// .equ name, value — define an assembly-time constant.
				if len(operands) != 2 {
					return errf(lineNo+1, "%s needs name, value", mnemonic)
				}
				if !validLabel(operands[0]) {
					return errf(lineNo+1, "bad constant name %q", operands[0])
				}
				if _, dup := a.symbols[operands[0]]; dup {
					return errf(lineNo+1, "duplicate symbol %q", operands[0])
				}
				v, err := parseNum(operands[1])
				if err != nil {
					return errf(lineNo+1, "bad constant value %q", operands[1])
				}
				a.symbols[operands[0]] = uint32(v)
				continue
			}
			size, err := directiveSize(lineNo+1, mnemonic, operands, *cur())
			if err != nil {
				return err
			}
			if sec == secText {
				return errf(lineNo+1, "data directive %s in .text section", mnemonic)
			}
			a.items = append(a.items, item{
				line: lineNo + 1, mnemonic: mnemonic, operands: operands,
				addr: *cur(), size: size, sec: sec,
			})
			*cur() += size
			continue
		}

		if sec != secText {
			return errf(lineNo+1, "instruction %q in .data section", mnemonic)
		}
		n, err := instrWords(lineNo+1, mnemonic, operands)
		if err != nil {
			return err
		}
		a.items = append(a.items, item{
			line: lineNo + 1, mnemonic: mnemonic, operands: operands,
			addr: textAddr, size: 4 * n, sec: secText,
		})
		textAddr += 4 * n
	}
	return nil
}

// validLabel accepts C-identifier-style labels (leading dot allowed for
// local labels).
func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_' || c == '.':
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

// directiveSize returns the byte size a data directive occupies.
func directiveSize(line int, d string, ops []string, addr uint32) (uint32, error) {
	switch d {
	case ".word":
		return 4 * uint32(len(ops)), nil
	case ".half":
		return 2 * uint32(len(ops)), nil
	case ".byte":
		return uint32(len(ops)), nil
	case ".space":
		if len(ops) != 1 {
			return 0, errf(line, ".space needs one operand")
		}
		n, err := parseNum(ops[0])
		if err != nil || n < 0 {
			return 0, errf(line, "bad .space size %q", ops[0])
		}
		return uint32(n), nil
	case ".align":
		if len(ops) != 1 {
			return 0, errf(line, ".align needs one operand")
		}
		n, err := parseNum(ops[0])
		if err != nil || n < 0 || n > 12 {
			return 0, errf(line, "bad .align %q", ops[0])
		}
		align := uint32(1) << uint(n)
		return (align - addr%align) % align, nil
	case ".asciiz":
		if len(ops) < 1 {
			return 0, errf(line, ".asciiz needs a string")
		}
		s, err := strconv.Unquote(strings.Join(ops, ","))
		if err != nil {
			return 0, errf(line, "bad string literal")
		}
		return uint32(len(s)) + 1, nil
	}
	return 0, errf(line, "unknown directive %s", d)
}

// instrWords returns how many machine instructions a (possibly pseudo)
// mnemonic expands into.
func instrWords(line int, mnemonic string, ops []string) (uint32, error) {
	switch mnemonic {
	case "li":
		if len(ops) != 2 {
			return 0, errf(line, "li needs 2 operands")
		}
		v, err := parseNum(ops[1])
		if err != nil {
			// Symbolic constant (.equ) or label: always the two-word
			// lui+ori form, so pass-1 sizing never depends on symbol
			// definition order.
			return 2, nil
		}
		if v >= -0x8000 && v <= 0x7fff {
			return 1, nil
		}
		if v >= 0 && v <= 0xffff {
			return 1, nil // ori
		}
		return 2, nil // lui+ori
	case "la":
		return 2, nil
	case "move", "b", "beqz", "bnez":
		return 1, nil
	}
	if _, ok := isa.OpByName(mnemonic); !ok {
		return 0, errf(line, "unknown mnemonic %q", mnemonic)
	}
	return 1, nil
}

// errNotNumber rejects operands that cannot start a number (labels,
// .equ names) before strconv builds an error for them.
var errNotNumber = errors.New("not a number")

func parseNum(s string) (int64, error) {
	if s == "" || !(s[0] >= '0' && s[0] <= '9' || s[0] == '-' || s[0] == '+') {
		// Labels and .equ names: skip strconv, whose errors allocate.
		return 0, errNotNumber
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		// Allow unsigned hex words like 0xdeadbeef.
		u, uerr := strconv.ParseUint(s, 0, 32)
		if uerr != nil {
			return 0, err
		}
		return int64(int32(u)), nil
	}
	return v, nil
}

// pass2 emits machine instructions and data bytes with symbols resolved.
func (a *assembler) pass2() error {
	for _, it := range a.items {
		if it.sec == secData {
			if err := a.emitData(it); err != nil {
				return err
			}
			continue
		}
		if err := a.emitInstr(it); err != nil {
			return err
		}
	}
	return nil
}

// resolve evaluates an operand that may be a number, a label, or
// label+offset / label-offset.
func (a *assembler) resolve(line int, s string) (int64, error) {
	if v, err := parseNum(s); err == nil {
		return v, nil
	}
	base := s
	var off int64
	for _, sep := range []string{"+", "-"} {
		if i := strings.LastIndex(s, sep); i > 0 {
			if v, err := parseNum(s[i+1:]); err == nil {
				base = strings.TrimSpace(s[:i])
				if sep == "-" {
					off = -v
				} else {
					off = v
				}
				break
			}
		}
	}
	if addr, ok := a.symbols[base]; ok {
		return int64(addr) + off, nil
	}
	return 0, errf(line, "undefined symbol %q", s)
}

func (a *assembler) emitData(it item) error {
	pad := func(n uint32) { a.data = append(a.data, make([]byte, n)...) }
	// Fill any gap caused by .align.
	gap := it.addr - (a.opt.DataBase + uint32(len(a.data)))
	pad(gap)

	switch it.mnemonic {
	case ".word", ".half", ".byte":
		width := uint32(4)
		switch it.mnemonic {
		case ".half":
			width = 2
		case ".byte":
			width = 1
		}
		for _, op := range it.operands {
			v, err := a.resolve(it.line, op)
			if err != nil {
				return err
			}
			for b := uint32(0); b < width; b++ {
				a.data = append(a.data, byte(uint64(v)>>(8*b)))
			}
		}
	case ".space", ".align":
		pad(it.size)
	case ".asciiz":
		s, err := strconv.Unquote(strings.Join(it.operands, ","))
		if err != nil {
			return errf(it.line, "bad string literal")
		}
		a.data = append(a.data, []byte(s)...)
		a.data = append(a.data, 0)
	}
	return nil
}

func (a *assembler) reg(line int, s string) (isa.Reg, error) {
	r, ok := isa.RegByName(s)
	if !ok {
		return isa.NoReg, errf(line, "bad register %q", s)
	}
	if !r.Architectural() {
		return isa.NoReg, errf(line, "register %s is hardware-only", r)
	}
	return r, nil
}

// memOperand parses "off(reg)" / "(reg)" / "label".
func (a *assembler) memOperand(line int, s string) (isa.Reg, int32, error) {
	i := strings.Index(s, "(")
	if i < 0 {
		// Absolute address via symbol is not supported as a memory
		// operand (MIPS needs a base register); require the paren form.
		return isa.NoReg, 0, errf(line, "memory operand %q must be off(reg)", s)
	}
	j := strings.Index(s, ")")
	if j < i {
		return isa.NoReg, 0, errf(line, "malformed memory operand %q", s)
	}
	base, err := a.reg(line, strings.TrimSpace(s[i+1:j]))
	if err != nil {
		return isa.NoReg, 0, err
	}
	offStr := strings.TrimSpace(s[:i])
	var off int64
	if offStr != "" {
		off, err = a.resolve(line, offStr)
		if err != nil {
			return isa.NoReg, 0, err
		}
	}
	if off < -0x8000 || off > 0x7fff {
		return isa.NoReg, 0, errf(line, "offset %d out of range", off)
	}
	return base, int32(off), nil
}

// branchDisp computes the word displacement from the instruction at addr to
// the operand (label or literal displacement).
func (a *assembler) branchDisp(line int, addr uint32, s string) (int32, error) {
	if v, err := parseNum(s); err == nil {
		return int32(v), nil
	}
	target, err := a.resolve(line, s)
	if err != nil {
		return 0, err
	}
	disp := (target - int64(addr) - 4) / 4
	if disp < -0x8000 || disp > 0x7fff {
		return 0, errf(line, "branch to %q out of range (%d words)", s, disp)
	}
	return int32(disp), nil
}

func (a *assembler) emitInstr(it item) error {
	line := it.line
	ops := it.operands
	need := func(n int) error {
		if len(ops) != n {
			return errf(line, "%s needs %d operands, got %d", it.mnemonic, n, len(ops))
		}
		return nil
	}
	emit := func(in isa.Instr) { a.text = append(a.text, in) }

	switch it.mnemonic {
	case "li":
		if err := need(2); err != nil {
			return err
		}
		rt, err := a.reg(line, ops[0])
		if err != nil {
			return err
		}
		if v, err := parseNum(ops[1]); err == nil {
			switch {
			case v >= -0x8000 && v <= 0x7fff:
				emit(isa.Instr{Op: isa.OpADDIU, Rt: rt, Rs: isa.Zero, Imm: int32(v)})
			case v >= 0 && v <= 0xffff:
				emit(isa.Instr{Op: isa.OpORI, Rt: rt, Rs: isa.Zero, Imm: int32(v)})
			default:
				u := uint32(v)
				emit(isa.Instr{Op: isa.OpLUI, Rt: rt, Imm: int32(u >> 16)})
				emit(isa.Instr{Op: isa.OpORI, Rt: rt, Rs: rt, Imm: int32(u & 0xffff)})
			}
			return nil
		}
		// Symbolic constant: matches the pass-1 two-word sizing.
		v, err := a.resolve(line, ops[1])
		if err != nil {
			return err
		}
		u := uint32(v)
		emit(isa.Instr{Op: isa.OpLUI, Rt: rt, Imm: int32(u >> 16)})
		emit(isa.Instr{Op: isa.OpORI, Rt: rt, Rs: rt, Imm: int32(u & 0xffff)})
		return nil
	case "la":
		if err := need(2); err != nil {
			return err
		}
		rt, err := a.reg(line, ops[0])
		if err != nil {
			return err
		}
		v, err := a.resolve(line, ops[1])
		if err != nil {
			return err
		}
		u := uint32(v)
		emit(isa.Instr{Op: isa.OpLUI, Rt: rt, Imm: int32(u >> 16)})
		emit(isa.Instr{Op: isa.OpORI, Rt: rt, Rs: rt, Imm: int32(u & 0xffff)})
		return nil
	case "move":
		if err := need(2); err != nil {
			return err
		}
		rd, err := a.reg(line, ops[0])
		if err != nil {
			return err
		}
		rs, err := a.reg(line, ops[1])
		if err != nil {
			return err
		}
		emit(isa.Instr{Op: isa.OpADDU, Rd: rd, Rs: rs, Rt: isa.Zero})
		return nil
	case "b":
		if err := need(1); err != nil {
			return err
		}
		disp, err := a.branchDisp(line, it.addr, ops[0])
		if err != nil {
			return err
		}
		emit(isa.Instr{Op: isa.OpBEQ, Rs: isa.Zero, Rt: isa.Zero, Imm: disp})
		return nil
	case "beqz", "bnez":
		if err := need(2); err != nil {
			return err
		}
		rs, err := a.reg(line, ops[0])
		if err != nil {
			return err
		}
		disp, err := a.branchDisp(line, it.addr, ops[1])
		if err != nil {
			return err
		}
		op := isa.OpBEQ
		if it.mnemonic == "bnez" {
			op = isa.OpBNE
		}
		emit(isa.Instr{Op: op, Rs: rs, Rt: isa.Zero, Imm: disp})
		return nil
	}

	op, _ := isa.OpByName(it.mnemonic)
	switch {
	case op == isa.OpNOP || op == isa.OpHALT:
		if err := need(0); err != nil {
			return err
		}
		emit(isa.Instr{Op: op})
	case op.IsMem():
		if err := need(2); err != nil {
			return err
		}
		rt, err := a.reg(line, ops[0])
		if err != nil {
			return err
		}
		base, off, err := a.memOperand(line, ops[1])
		if err != nil {
			return err
		}
		emit(isa.Instr{Op: op, Rt: rt, Rs: base, Imm: off})
	case op == isa.OpBEQ || op == isa.OpBNE:
		if err := need(3); err != nil {
			return err
		}
		rs, err := a.reg(line, ops[0])
		if err != nil {
			return err
		}
		rt, err := a.reg(line, ops[1])
		if err != nil {
			return err
		}
		disp, err := a.branchDisp(line, it.addr, ops[2])
		if err != nil {
			return err
		}
		emit(isa.Instr{Op: op, Rs: rs, Rt: rt, Imm: disp})
	case op.IsBranch(): // blez/bgtz/bltz/bgez
		if err := need(2); err != nil {
			return err
		}
		rs, err := a.reg(line, ops[0])
		if err != nil {
			return err
		}
		disp, err := a.branchDisp(line, it.addr, ops[1])
		if err != nil {
			return err
		}
		emit(isa.Instr{Op: op, Rs: rs, Imm: disp})
	case op == isa.OpJ || op == isa.OpJAL:
		if err := need(1); err != nil {
			return err
		}
		target, err := a.resolve(line, ops[0])
		if err != nil {
			return err
		}
		if target&3 != 0 {
			return errf(line, "jump target 0x%x not word aligned", target)
		}
		emit(isa.Instr{Op: op, Target: uint32(target) >> 2})
	case op == isa.OpJR:
		if err := need(1); err != nil {
			return err
		}
		rs, err := a.reg(line, ops[0])
		if err != nil {
			return err
		}
		emit(isa.Instr{Op: op, Rs: rs})
	case op == isa.OpJALR:
		var rd, rs isa.Reg
		var err error
		switch len(ops) {
		case 1:
			rd = isa.RA
			rs, err = a.reg(line, ops[0])
		case 2:
			rd, err = a.reg(line, ops[0])
			if err == nil {
				rs, err = a.reg(line, ops[1])
			}
		default:
			err = errf(line, "jalr needs 1 or 2 operands")
		}
		if err != nil {
			return err
		}
		emit(isa.Instr{Op: op, Rd: rd, Rs: rs})
	case op == isa.OpLUI:
		if err := need(2); err != nil {
			return err
		}
		rt, err := a.reg(line, ops[0])
		if err != nil {
			return err
		}
		v, err := a.resolve(line, ops[1])
		if err != nil {
			return err
		}
		if v < 0 || v > 0xffff {
			return errf(line, "lui immediate %d out of range", v)
		}
		emit(isa.Instr{Op: op, Rt: rt, Imm: int32(v)})
	case op == isa.OpSLL || op == isa.OpSRL || op == isa.OpSRA:
		if err := need(3); err != nil {
			return err
		}
		rd, err := a.reg(line, ops[0])
		if err != nil {
			return err
		}
		rt, err := a.reg(line, ops[1])
		if err != nil {
			return err
		}
		sh, err := a.resolve(line, ops[2])
		if err != nil {
			return err
		}
		if sh < 0 || sh > 31 {
			return errf(line, "shift amount %d out of range", sh)
		}
		emit(isa.Instr{Op: op, Rd: rd, Rt: rt, Imm: int32(sh)})
	case isITypeMnemonic(op):
		if err := need(3); err != nil {
			return err
		}
		rt, err := a.reg(line, ops[0])
		if err != nil {
			return err
		}
		rs, err := a.reg(line, ops[1])
		if err != nil {
			return err
		}
		v, err := a.resolve(line, ops[2])
		if err != nil {
			return err
		}
		emit(isa.Instr{Op: op, Rt: rt, Rs: rs, Imm: int32(v)})
	default: // three-register ALU / FP proxies
		if err := need(3); err != nil {
			return err
		}
		rd, err := a.reg(line, ops[0])
		if err != nil {
			return err
		}
		rs, err := a.reg(line, ops[1])
		if err != nil {
			return err
		}
		rt, err := a.reg(line, ops[2])
		if err != nil {
			return err
		}
		emit(isa.Instr{Op: op, Rd: rd, Rs: rs, Rt: rt})
	}
	return nil
}

func isITypeMnemonic(op isa.Op) bool {
	switch op {
	case isa.OpADDI, isa.OpADDIU, isa.OpANDI, isa.OpORI, isa.OpXORI,
		isa.OpSLTI, isa.OpSLTIU:
		return true
	}
	return false
}
