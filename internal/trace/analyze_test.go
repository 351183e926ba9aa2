package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dmdp/internal/isa"
)

// referenceAnalyze is the dependence analysis the Analyzer replaced: a
// map from word address to the youngest writer of each byte, over the
// whole trace at once. It fills DepStore and DepOverlap in entries and
// returns the index and counts Analyze must produce.
func referenceAnalyze(entries []Entry) (seq []SeqBlock, stores, loads int64) {
	lastWriter := make(map[uint32]*[4]uint32)
	seq = make([]SeqBlock, SeqBlocks(len(entries)))
	var blk *SeqBlock
	var storeSeq, loadSeq uint32
	for i := range entries {
		e := &entries[i]
		if i&63 == 0 {
			blk = &seq[i>>6]
			blk.StoresBefore, blk.LoadsBefore = storeSeq, loadSeq
		}
		switch {
		case e.IsStore():
			blk.Stores |= 1 << (uint(i) & 63)
			storeSeq++
			w := lastWriter[e.WordAddr()]
			if w == nil {
				w = new([4]uint32)
				lastWriter[e.WordAddr()] = w
			}
			for b := uint32(0); b < uint32(e.Size); b++ {
				w[(e.Addr+b)&3] = storeSeq
			}
		case e.IsLoad():
			blk.Loads |= 1 << (uint(i) & 63)
			loadSeq++
			e.DepStore, e.DepOverlap = 0, OverlapNone
			w := lastWriter[e.WordAddr()]
			if w == nil {
				continue
			}
			youngest, full := uint32(0), true
			for b := uint32(0); b < uint32(e.Size); b++ {
				ws := w[(e.Addr+b)&3]
				if b > 0 && ws != youngest {
					full = false
				}
				if ws > youngest {
					youngest = ws
				}
			}
			if youngest == 0 {
				continue
			}
			e.DepStore = youngest
			if full {
				e.DepOverlap = OverlapFull
			} else {
				e.DepOverlap = OverlapPartial
			}
		}
	}
	return seq, int64(storeSeq), int64(loadSeq)
}

// memEntry builds a store (kind 0), a load (kind 1) or an ALU entry
// (otherwise) of size bytes at byte offset off of word word in page page.
// Sizes and offsets are free: a 4-byte access at offset 1 wraps within
// its word, as the analysis indexes bytes (addr+b)&3.
func memEntry(kind int, size uint8, off, word, page uint32) Entry {
	addr := page<<12 | word<<2 | off
	var op isa.Op
	switch kind {
	case 0:
		op = map[uint8]isa.Op{1: isa.OpSB, 2: isa.OpSH, 4: isa.OpSW}[size]
	case 1:
		op = map[uint8]isa.Op{1: isa.OpLBU, 2: isa.OpLH, 4: isa.OpLW}[size]
	default:
		return Entry{PC: word << 2, Op: isa.OpADDI}
	}
	// Stale dependence fields: the analysis must overwrite a load's.
	return Entry{PC: word << 2, Op: op, Addr: addr, Size: size, Value: word, DepStore: 99, DepOverlap: OverlapPartial}
}

// pages spans the two-level directory: neighbours in one leaf, the
// first and last page of the address space, and a far leaf.
var pages = [...]uint32{0, 1, 0x12345, 0xfffff}

// checkPieces analyzes entries three ways — the map-based reference,
// one-shot Analyze, and an Analyzer fed the pieces that cuts delimits
// (cut points in order, repeats giving empty pieces) — and reports the
// first difference.
func checkPieces(entries []Entry, cuts []int) error {
	want := slices.Clone(entries)
	wantSeq, wantStores, wantLoads := referenceAnalyze(want)

	whole := &Trace{Entries: slices.Clone(entries)}
	whole.Analyze()

	pieced := &Trace{Entries: slices.Clone(entries)}
	var a Analyzer
	from := 0
	for _, c := range append(cuts, len(entries)) {
		a.Add(pieced.Entries[from:c])
		from = c
	}
	a.Finish(pieced)

	for _, got := range []struct {
		name string
		t    *Trace
	}{{"Analyze", whole}, {"pieces", pieced}} {
		if got.t.Stores != wantStores || got.t.Loads != wantLoads {
			return fmt.Errorf("%s: %d stores / %d loads, reference %d / %d", got.name, got.t.Stores, got.t.Loads, wantStores, wantLoads)
		}
		if !slices.Equal(got.t.Seq, wantSeq) {
			return fmt.Errorf("%s: index differs from the reference", got.name)
		}
		for i := range want {
			if got.t.Entries[i] != want[i] {
				return fmt.Errorf("%s: entry %d: %+v, reference %+v", got.name, i, got.t.Entries[i], want[i])
			}
		}
	}
	return nil
}

// TestAnalyzerPiecesMatchWhole: an Analyzer fed random piece splits,
// empty pieces and splits inside a 64-entry block among them, gives the
// entries, index and counts of one-shot Analyze, and both give those of
// the map-based algorithm, over 1-, 2- and 4-byte stores and loads at
// every byte offset, on few enough words that most loads find a writer.
func TestAnalyzerPiecesMatchWhole(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(700)
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = memEntry(r.Intn(3), []uint8{1, 2, 4}[r.Intn(3)], uint32(r.Intn(4)),
				uint32(r.Intn(6)), pages[r.Intn(len(pages))])
		}
		var cuts []int
		for c := 0; c <= n; c += r.Intn(150) { // a zero step repeats a cut
			cuts = append(cuts, c)
		}
		if err := checkPieces(entries, cuts); err != nil {
			t.Fatalf("trial %d (%d entries, cuts %v): %v", trial, n, cuts, err)
		}
	}
}

// FuzzAnalyzerPieces is TestAnalyzerPiecesMatchWhole over fuzzed
// entries and splits: each three bytes make one entry — kind, size and
// byte offset; word; page and whether a piece (or an empty one) starts
// there.
func FuzzAnalyzerPieces(f *testing.F) {
	f.Add([]byte{0x30, 1, 0x80, 0x01, 1, 0x00, 0x35, 2, 0x41, 0x1d, 2, 0xc2})
	f.Add([]byte{0x08, 0, 0x03, 0x05, 0, 0x03, 0x19, 0, 0x83})
	f.Fuzz(func(t *testing.T, data []byte) {
		var entries []Entry
		var cuts []int
		for i := 0; i+2 < len(data); i += 3 {
			b0, b1, b2 := data[i], data[i+1], data[i+2]
			if b2&0x80 != 0 {
				cuts = append(cuts, len(entries))
			}
			if b2&0x40 != 0 {
				cuts = append(cuts, len(entries))
			}
			entries = append(entries, memEntry(int(b0%3), []uint8{1, 2, 4}[b0>>2%3], uint32(b0>>4&3),
				uint32(b1%8), pages[b2&3]))
		}
		if err := checkPieces(entries, cuts); err != nil {
			t.Fatal(err)
		}
	})
}
