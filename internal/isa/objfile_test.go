package isa

import (
	"encoding/binary"
	"runtime"
	"testing"
)

func sampleProgram() *Program {
	return &Program{
		TextBase: 0x0040_0000,
		DataBase: 0x1000_0000,
		Entry:    0x0040_0004,
		Text: []Instr{
			{Op: OpADDI, Rt: T0, Rs: Zero, Imm: 5},
			{Op: OpLW, Rt: T1, Rs: T0, Imm: 8},
			{Op: OpSW, Rt: T1, Rs: T0, Imm: 12},
			{Op: OpBEQ, Rs: T0, Rt: T1, Imm: -2},
			{Op: OpJ, Target: 0x100},
			{Op: OpHALT},
		},
		Data:    []byte{1, 2, 3, 4, 5, 6, 7},
		Symbols: map[string]uint32{"main": 0x0040_0004, "buf": 0x1000_0000},
	}
}

func TestObjectRoundTrip(t *testing.T) {
	p := sampleProgram()
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !IsObjectFile(blob) {
		t.Fatal("magic missing")
	}
	q, err := UnmarshalProgram(blob)
	if err != nil {
		t.Fatal(err)
	}
	if q.TextBase != p.TextBase || q.DataBase != p.DataBase || q.Entry != p.Entry {
		t.Fatal("header fields wrong")
	}
	if len(q.Text) != len(p.Text) {
		t.Fatalf("text length %d", len(q.Text))
	}
	for i := range p.Text {
		if q.Text[i] != p.Text[i] {
			t.Fatalf("instr %d: %v != %v", i, q.Text[i], p.Text[i])
		}
	}
	if string(q.Data) != string(p.Data) {
		t.Fatal("data mismatch")
	}
	if len(q.Symbols) != 2 || q.Symbols["main"] != p.Symbols["main"] || q.Symbols["buf"] != p.Symbols["buf"] {
		t.Fatalf("symbols %v", q.Symbols)
	}
}

func TestObjectDeterministic(t *testing.T) {
	p := sampleProgram()
	a, _ := p.MarshalBinary()
	b, _ := p.MarshalBinary()
	if string(a) != string(b) {
		t.Fatal("marshal not deterministic (symbol order?)")
	}
}

func TestObjectRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("DMO1"),             // truncated header
		[]byte("DMO1\x00\x00\x00"), // still truncated
	}
	for i, c := range cases {
		if _, err := UnmarshalProgram(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Valid header then truncated text.
	p := sampleProgram()
	blob, _ := p.MarshalBinary()
	if _, err := UnmarshalProgram(blob[:40]); err == nil {
		t.Error("truncated object should fail")
	}
	if IsObjectFile([]byte("nope")) {
		t.Error("IsObjectFile false positive")
	}
}

func TestObjectHardwareRegisterRejected(t *testing.T) {
	p := &Program{Text: []Instr{{Op: OpADD, Rd: HwAddr, Rs: T0, Rt: T1}}}
	if _, err := p.MarshalBinary(); err == nil {
		t.Fatal("hardware-only registers are not encodable")
	}
}

// TestObjectHostileHeaderFailsFast: a 28-byte object whose header claims
// 2^32-1 symbols once pre-sized the symbol map before any plausibility
// check and exhausted memory. Hostile counts must be rejected before
// anything is allocated from them.
func TestObjectHostileHeaderFailsFast(t *testing.T) {
	hdr := func(nText, nData, nSyms uint32) []byte {
		b := []byte("DMO1")
		for _, v := range []uint32{0x400000, 0x10000000, 0x400000, nText, nData, nSyms} {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	for _, c := range []struct {
		name string
		blob []byte
	}{
		{"2^32-1 symbols", hdr(0, 0, 1<<32-1)},
		{"max plausible sections, no bytes", hdr(1<<26, 1<<28, 1<<20)},
	} {
		if len(c.blob) != 28 {
			t.Fatalf("%s: header is %d bytes, want 28", c.name, len(c.blob))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := UnmarshalProgram(c.blob); err == nil {
			t.Fatalf("%s: hostile header accepted", c.name)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: rejecting the header allocated %d bytes", c.name, grew)
		}
	}
}
