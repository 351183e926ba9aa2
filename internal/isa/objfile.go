package isa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Binary object format ("DMO1"): a compact container for assembled
// programs so workloads can be built once and shipped/loaded without the
// assembler. Layout (little endian):
//
//	magic    [4]byte "DMO1"
//	textBase uint32
//	dataBase uint32
//	entry    uint32
//	nText    uint32   // instruction count
//	nData    uint32   // data byte count
//	nSyms    uint32
//	text     nText * uint32 (encoded instructions)
//	data     nData bytes
//	syms     nSyms * { nameLen uint16, name bytes, addr uint32 }
const objMagic = "DMO1"

// MarshalBinary serializes the program into the DMO1 object format.
func (p *Program) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(objMagic)
	hdr := []uint32{
		p.TextBase, p.DataBase, p.Entry,
		uint32(len(p.Text)), uint32(len(p.Data)), uint32(len(p.Symbols)),
	}
	for _, v := range hdr {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	for i, in := range p.Text {
		w, err := in.Encode()
		if err != nil {
			return nil, fmt.Errorf("isa: object: instruction %d (%v): %w", i, in, err)
		}
		if err := binary.Write(&buf, binary.LittleEndian, w); err != nil {
			return nil, err
		}
	}
	buf.Write(p.Data)
	// Deterministic symbol order.
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if len(n) > 0xffff {
			return nil, fmt.Errorf("isa: object: symbol name too long")
		}
		if err := binary.Write(&buf, binary.LittleEndian, uint16(len(n))); err != nil {
			return nil, err
		}
		buf.WriteString(n)
		if err := binary.Write(&buf, binary.LittleEndian, p.Symbols[n]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// IsObjectFile reports whether data starts with the DMO1 magic.
func IsObjectFile(data []byte) bool {
	return len(data) >= 4 && string(data[:4]) == objMagic
}

// UnmarshalProgram parses a DMO1 object back into a Program.
func UnmarshalProgram(data []byte) (*Program, error) {
	r := bytes.NewReader(data)
	magic := make([]byte, 4)
	if _, err := r.Read(magic); err != nil || string(magic) != objMagic {
		return nil, fmt.Errorf("isa: object: bad magic")
	}
	var hdr [6]uint32
	for i := range hdr {
		if err := binary.Read(r, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("isa: object: truncated header: %w", err)
		}
	}
	nText, nData, nSyms := hdr[3], hdr[4], hdr[5]
	const maxSection = 1 << 28
	if nText > maxSection/4 || nData > maxSection || nSyms > 1<<20 {
		return nil, fmt.Errorf("isa: object: implausible section sizes")
	}
	// Every section size comes from the untrusted header, so check that
	// the remaining bytes can hold them (a symbol is at least 6 bytes)
	// before anything is sized from them.
	if 4*int64(nText)+int64(nData)+6*int64(nSyms) > int64(r.Len()) {
		return nil, fmt.Errorf("isa: object: truncated: header claims more than the %d remaining bytes", r.Len())
	}
	p := &Program{
		TextBase: hdr[0],
		DataBase: hdr[1],
		Entry:    hdr[2],
		Symbols:  make(map[string]uint32, nSyms),
	}
	p.Text = make([]Instr, nText)
	for i := range p.Text {
		var w uint32
		if err := binary.Read(r, binary.LittleEndian, &w); err != nil {
			return nil, fmt.Errorf("isa: object: truncated text: %w", err)
		}
		in, err := Decode(w)
		if err != nil {
			return nil, fmt.Errorf("isa: object: instruction %d: %w", i, err)
		}
		p.Text[i] = in
	}
	p.Data = make([]byte, nData)
	if _, err := io.ReadFull(r, p.Data); err != nil {
		return nil, fmt.Errorf("isa: object: truncated data: %w", err)
	}
	for i := uint32(0); i < nSyms; i++ {
		var nameLen uint16
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("isa: object: truncated symbols: %w", err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("isa: object: truncated symbol name: %w", err)
		}
		var addr uint32
		if err := binary.Read(r, binary.LittleEndian, &addr); err != nil {
			return nil, fmt.Errorf("isa: object: truncated symbol addr: %w", err)
		}
		p.Symbols[string(name)] = addr
	}
	return p, nil
}
