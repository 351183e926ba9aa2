package trace

import "dmdp/internal/isa"

// Analyze computes, for every load, the youngest store writing any of its
// bytes and the overlap class, the store and load counts, and the
// sequence-number index Seq. The silent flag is expected to have been
// set by the emulator. Analyze is idempotent: it is an Analyzer given
// the whole trace as one piece.
func (t *Trace) Analyze() {
	a := Analyzer{seq: make([]SeqBlock, 0, SeqBlocks(len(t.Entries)))}
	a.Add(t.Entries)
	a.Finish(t)
}

// Analyzer is Analyze carried across pieces: it takes a trace's entries
// in order, in pieces of any length, fills each load's DepStore and
// DepOverlap in place and builds the sequence-number index as it goes.
// Between pieces it keeps the last writer of every byte stored to so
// far and the store and load counts, and no entry, so a piece's memory
// is the caller's again once Add returns. The zero Analyzer is ready to
// use.
type Analyzer struct {
	seq           []SeqBlock
	n             int    // entries analyzed
	stores, loads uint32 // the last store and load sequence numbers
	writers       writerTable
}

// Add analyzes the next piece of the trace.
func (a *Analyzer) Add(piece []Entry) {
	var blk *SeqBlock
	if len(a.seq) > 0 {
		blk = &a.seq[len(a.seq)-1]
	}
	i := a.n
	for k := range piece {
		e := &piece[k]
		if i&63 == 0 {
			a.seq = append(a.seq, SeqBlock{StoresBefore: a.stores, LoadsBefore: a.loads})
			blk = &a.seq[len(a.seq)-1]
		}
		switch e.Op.Class() {
		case isa.ClassStore:
			blk.Stores |= 1 << (uint(i) & 63)
			a.stores++
			w := &a.writers.writable(e.Addr)[e.Addr>>2&wordMask]
			for b := uint32(0); b < uint32(e.Size); b++ {
				w[(e.Addr+b)&3] = a.stores
			}
		case isa.ClassLoad:
			blk.Loads |= 1 << (uint(i) & 63)
			a.loads++
			e.DepStore, e.DepOverlap = a.writers.dep(e.Addr, uint32(e.Size))
		}
		i++
	}
	a.n = i
}

// Finish sets t's index and store and load counts to those of the
// entries analyzed so far, which must be t.Entries.
func (a *Analyzer) Finish(t *Trace) {
	t.Seq = a.seq
	t.Stores, t.Loads = int64(a.stores), int64(a.loads)
}

// The last-writer table is paged: one pageWriters per 4 KiB page a store
// wrote, found through a one-entry cache in front of a two-level
// directory (pageBits of page number per level) that covers the 32-bit
// address space.
const (
	pageShift = 12
	pageBits  = 10
	wordMask  = 1<<(pageShift-2) - 1
)

// pageWriters holds, for every word of one page, the sequence number of
// the youngest store to write each of its bytes (0: none yet).
type pageWriters [1 << (pageShift - 2)][4]uint32

type writerTable struct {
	dir      [1 << pageBits]*[1 << pageBits]*pageWriters
	lastPage uint32 // the page number last looked up, when last is set
	last     *pageWriters
}

// find returns the writers of addr's page, nil when no store wrote it.
func (w *writerTable) find(addr uint32) *pageWriters {
	pn := addr >> pageShift
	if w.last != nil && pn == w.lastPage {
		return w.last
	}
	leaf := w.dir[pn>>pageBits]
	if leaf == nil {
		return nil
	}
	p := leaf[pn&(1<<pageBits-1)]
	if p != nil {
		w.lastPage, w.last = pn, p
	}
	return p
}

// writable returns the writers of addr's page, allocating them at the
// page's first store.
func (w *writerTable) writable(addr uint32) *pageWriters {
	if p := w.find(addr); p != nil {
		return p
	}
	pn := addr >> pageShift
	leaf := w.dir[pn>>pageBits]
	if leaf == nil {
		leaf = new([1 << pageBits]*pageWriters)
		w.dir[pn>>pageBits] = leaf
	}
	p := new(pageWriters)
	leaf[pn&(1<<pageBits-1)] = p
	w.lastPage, w.last = pn, p
	return p
}

// dep returns the youngest store that wrote any of the size bytes a load
// reads at addr, and whether it wrote every one of them. Full
// forwarding requires the store to contain the load: a narrower store
// is never the youngest writer of every load byte unless the sizes match.
func (w *writerTable) dep(addr, size uint32) (uint32, Overlap) {
	p := w.find(addr)
	if p == nil {
		return 0, OverlapNone
	}
	word := &p[addr>>2&wordMask]
	youngest, full := uint32(0), true
	for b := uint32(0); b < size; b++ {
		ws := word[(addr+b)&3]
		if b > 0 && ws != youngest {
			full = false
		}
		if ws > youngest {
			youngest = ws
		}
	}
	switch {
	case youngest == 0:
		return 0, OverlapNone
	case full:
		return youngest, OverlapFull
	}
	return youngest, OverlapPartial
}
