package artifact

import (
	"encoding/binary"
	"testing"

	"dmdp/internal/asm"
	"dmdp/internal/emu"
	"dmdp/internal/trace"
)

// fuzzTrace builds a small but structurally complete trace (program
// text, data, symbols, entries and index) to seed the corpus.
func fuzzTrace(tb testing.TB) *trace.Trace {
	tb.Helper()
	src := "\t.text\nmain:\n\tli $t0, 7\n\tsw $t0, 0($gp)\n\tlw $t1, 0($gp)\n\taddi $t1, $t1, 1\n\thalt\n\t.data\nx:\n\t.word 1, 2, 3, 4\n"
	prog, err := asm.Assemble(src)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := emu.Run(prog, 100)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// FuzzTraceDecode feeds mutated artifact-store bytes to the trace
// decoder. The contract: any input yields either a miss (nil) or a
// structurally sound trace — never a panic and never a silently wrong
// trace. Mutations are decoded twice: once as-is (exercising the frame's
// magic and checksum gate) and once re-signed through the frame — the
// trace magic restored and the payload checksum recomputed over
// whatever bytes the fuzzer produced — which drives the fuzzer past the
// checksum into the structural decoder, the territory the recover()
// backstop and the length checks guard.
func FuzzTraceDecode(f *testing.F) {
	valid := traceKind.encodeFile(fuzzTrace(f))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])        // truncated mid-payload
	f.Add(valid[:frameHeaderSize])     // header only
	f.Add([]byte{})                    // empty
	f.Add([]byte("DMDPTRC3 not real")) // magic, garbage rest
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	v2 := append([]byte(nil), valid...)
	v2[7] = '2' // the previous format's magic: a miss, whatever follows
	f.Add(v2)

	f.Fuzz(func(t *testing.T, data []byte) {
		checkSound(t, traceKind.decodeFile(data))
		if len(data) < frameHeaderSize {
			return
		}
		patched := append([]byte(nil), data...)
		copy(patched, traceMagic[:])
		binary.LittleEndian.PutUint32(patched[8:12], payloadChecksum(patched[frameHeaderSize:]))
		checkSound(t, traceKind.decodeFile(patched))
	})
}

// checkSound asserts the invariants a successfully decoded trace must
// satisfy: a decode that returns non-nil with an inconsistent structure
// would be the "silent wrong trace" failure mode — the simulator indexes
// Prog.Text, Entries and the sequence-number index without further
// validation.
func checkSound(t *testing.T, tr *trace.Trace) {
	t.Helper()
	if tr == nil {
		return // a miss is always a fine outcome
	}
	if tr.Prog == nil {
		t.Fatal("decoded trace has nil program")
	}
	if tr.InitMem == nil {
		t.Fatal("decoded trace has nil initial memory")
	}
	if tr.Stores < 0 || tr.Loads < 0 {
		t.Fatalf("negative stream counts: stores=%d loads=%d", tr.Stores, tr.Loads)
	}
	if want := trace.SeqBlocks(len(tr.Entries)); len(tr.Seq) != want {
		t.Fatalf("index has %d blocks for %d entries, want %d", len(tr.Seq), len(tr.Entries), want)
	}
	// Every entry's fields must be readable (decodeTrace's length checks
	// enforced that the entry section exists in full), and the index
	// must count each entry it marks exactly once, in order, and resolve
	// every store sequence number back to its entry.
	var stores, loads int64
	for i := range tr.Entries {
		e := &tr.Entries[i]
		_, _, _, _ = e.PC, e.Op, e.Size, e.Flags
		_, _ = e.DepStore, e.DepOverlap
		if tr.StoresBefore(i) != stores || tr.LoadsBefore(i) != loads {
			t.Fatalf("entry %d: index counts %d stores / %d loads before it, blocks say %d / %d",
				i, tr.StoresBefore(i), tr.LoadsBefore(i), stores, loads)
		}
		if seq := tr.StoreSeq(i); seq != 0 {
			stores++
			if seq != stores || tr.EntryBySeq(seq) != i {
				t.Fatalf("entry %d: store seq %d resolves to entry %d", i, seq, tr.EntryBySeq(seq))
			}
		}
		if seq := tr.LoadSeq(i); seq != 0 {
			loads++
			if seq != loads {
				t.Fatalf("entry %d: load seq %d, want %d", i, seq, loads)
			}
		}
	}
	if stores != tr.Stores || loads != tr.Loads {
		t.Fatalf("index marks %d stores / %d loads, trace says %d / %d", stores, loads, tr.Stores, tr.Loads)
	}
	if tr.EntryBySeq(tr.Stores+1) != -1 {
		t.Fatal("store seq past the trace resolves to an entry")
	}
}
