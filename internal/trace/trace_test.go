package trace

import (
	"testing"
	"testing/quick"

	"dmdp/internal/isa"
)

func ld(op isa.Op, addr uint32) Entry {
	return Entry{Op: op, Addr: addr, Size: uint8(op.MemBytes())}
}

func st(op isa.Op, addr, val uint32) Entry {
	return Entry{Op: op, Addr: addr, Size: uint8(op.MemBytes()), Value: val}
}

func TestBAB(t *testing.T) {
	cases := []struct {
		addr, size uint32
		want       uint8
	}{
		{0x100, 4, 0b1111},
		{0x100, 2, 0b0011},
		{0x102, 2, 0b1100},
		{0x101, 1, 0b0010},
		{0x103, 1, 0b1000},
	}
	for _, c := range cases {
		if got := BAB(c.addr, c.size); got != c.want {
			t.Errorf("BAB(0x%x,%d) = %04b, want %04b", c.addr, c.size, got, c.want)
		}
	}
}

func TestAnalyzeBasicDependence(t *testing.T) {
	tr := &Trace{Entries: []Entry{
		st(isa.OpSW, 0x100, 1), // seq 1
		st(isa.OpSW, 0x200, 2), // seq 2
		ld(isa.OpLW, 0x100),    // depends on seq 1, dist 1
		st(isa.OpSW, 0x100, 3), // seq 3
		ld(isa.OpLW, 0x100),    // depends on seq 3, dist 0
		ld(isa.OpLW, 0x300),    // no dependence
	}}
	tr.Analyze()
	e := tr.Entries
	if tr.StoreSeq(0) != 1 || tr.StoreSeq(1) != 2 || tr.StoreSeq(3) != 3 {
		t.Fatal("store seqs wrong")
	}
	if e[2].DepStore != 1 || tr.DepDist(2) != 1 || e[2].DepOverlap != OverlapFull {
		t.Fatalf("load1 dep = %d dist %d %v", e[2].DepStore, tr.DepDist(2), e[2].DepOverlap)
	}
	if e[4].DepStore != 3 || tr.DepDist(4) != 0 {
		t.Fatalf("load2 dep = %d dist %d", e[4].DepStore, tr.DepDist(4))
	}
	if e[5].DepStore != 0 || e[5].DepOverlap != OverlapNone {
		t.Fatalf("load3 dep = %d %v", e[5].DepStore, e[5].DepOverlap)
	}
	if tr.Stores != 3 || tr.Loads != 3 {
		t.Fatalf("counts %d %d", tr.Stores, tr.Loads)
	}
}

func TestAnalyzePartialOverlap(t *testing.T) {
	tr := &Trace{Entries: []Entry{
		st(isa.OpSW, 0x100, 0x11223344), // seq 1: whole word
		st(isa.OpSB, 0x100, 0x55),       // seq 2: low byte only
		ld(isa.OpLW, 0x100),             // youngest writer of byte0 is 2, bytes1-3 is 1 -> partial on 2
		ld(isa.OpLB, 0x100),             // fully covered by seq 2
		ld(isa.OpLH, 0x102),             // bytes 2-3 only: full on seq 1
	}}
	tr.Analyze()
	e := tr.Entries
	if e[2].DepStore != 2 || e[2].DepOverlap != OverlapPartial {
		t.Fatalf("lw dep=%d %v", e[2].DepStore, e[2].DepOverlap)
	}
	if e[3].DepStore != 2 || e[3].DepOverlap != OverlapFull {
		t.Fatalf("lb dep=%d %v", e[3].DepStore, e[3].DepOverlap)
	}
	if e[4].DepStore != 1 || e[4].DepOverlap != OverlapFull {
		t.Fatalf("lh dep=%d %v", e[4].DepStore, e[4].DepOverlap)
	}
}

func TestAnalyzeIdempotent(t *testing.T) {
	tr := &Trace{Entries: []Entry{
		st(isa.OpSW, 0x100, 1),
		ld(isa.OpLW, 0x100),
	}}
	tr.Analyze()
	first := append([]Entry(nil), tr.Entries...)
	firstSeq := append([]SeqBlock(nil), tr.Seq...)
	tr.Analyze()
	for i := range first {
		if first[i] != tr.Entries[i] {
			t.Fatalf("entry %d changed on re-analyze", i)
		}
	}
	if len(firstSeq) != len(tr.Seq) || firstSeq[0] != tr.Seq[0] {
		t.Fatalf("index changed on re-analyze: %v -> %v", firstSeq, tr.Seq)
	}
}

func TestEntryBySeq(t *testing.T) {
	tr := &Trace{Entries: []Entry{
		ld(isa.OpLW, 0x500),
		st(isa.OpSW, 0x100, 1), // seq 1 at idx 1
		ld(isa.OpLW, 0x100),
		st(isa.OpSW, 0x104, 2), // seq 2 at idx 3
		st(isa.OpSW, 0x108, 3), // seq 3 at idx 4
	}}
	tr.Analyze()
	for seq, wantIdx := range map[int64]int{1: 1, 2: 3, 3: 4} {
		if got := tr.EntryBySeq(seq); got != wantIdx {
			t.Errorf("EntryBySeq(%d) = %d, want %d", seq, got, wantIdx)
		}
	}
	if tr.EntryBySeq(0) != -1 || tr.EntryBySeq(4) != -1 || tr.EntryBySeq(-2) != -1 {
		t.Error("out-of-range seq should return -1")
	}
}

func TestForwardValueWordToWord(t *testing.T) {
	s := st(isa.OpSW, 0x100, 0xdeadbeef)
	l := ld(isa.OpLW, 0x100)
	if got := ForwardValue(&s, &l); got != 0xdeadbeef {
		t.Fatalf("got 0x%x", got)
	}
}

func TestForwardValueWordToHalf(t *testing.T) {
	s := st(isa.OpSW, 0x100, 0x11228002)
	lo := ld(isa.OpLHU, 0x100)
	hi := ld(isa.OpLHU, 0x102)
	his := ld(isa.OpLH, 0x100)
	if ForwardValue(&s, &lo) != 0x8002 {
		t.Error("low half wrong")
	}
	if ForwardValue(&s, &hi) != 0x1122 {
		t.Error("high half wrong (shift by address bits)")
	}
	if ForwardValue(&s, &his) != 0xffff8002 {
		t.Error("sign extension wrong")
	}
}

func TestForwardValueByte(t *testing.T) {
	s := st(isa.OpSW, 0x100, 0x11223384)
	b3 := ld(isa.OpLBU, 0x103)
	if ForwardValue(&s, &b3) != 0x11 {
		t.Error("byte 3 wrong")
	}
	sb := ld(isa.OpLB, 0x100)
	if ForwardValue(&s, &sb) != 0xffffff84 {
		t.Error("lb sign extension wrong")
	}
}

func TestForwardValueHalfToByte(t *testing.T) {
	s := st(isa.OpSH, 0x102, 0xbbaa)
	l := ld(isa.OpLBU, 0x103)
	if got := ForwardValue(&s, &l); got != 0xbb {
		t.Fatalf("got 0x%x", got)
	}
}

func TestExtendLoad(t *testing.T) {
	if ExtendLoad(isa.OpLW, 0xffffffff) != 0xffffffff {
		t.Error("lw must pass through")
	}
	if ExtendLoad(isa.OpLB, 0x80) != 0xffffff80 || ExtendLoad(isa.OpLBU, 0x80) != 0x80 {
		t.Error("byte extension wrong")
	}
	if ExtendLoad(isa.OpLH, 0x8000) != 0xffff8000 || ExtendLoad(isa.OpLHU, 0xff8000) != 0x8000 {
		t.Error("half extension wrong")
	}
}

// Property: the youngest colliding store reported by Analyze always has a
// smaller sequence number than StoresBefore+1 and never exceeds the number
// of stores.
func TestAnalyzeDepBounds(t *testing.T) {
	f := func(ops []uint16) bool {
		var entries []Entry
		for _, o := range ops {
			addr := uint32(o%64) * 4
			if o&1 == 0 {
				entries = append(entries, st(isa.OpSW, addr, uint32(o)))
			} else {
				entries = append(entries, ld(isa.OpLW, addr))
			}
		}
		tr := &Trace{Entries: entries}
		tr.Analyze()
		for i := range tr.Entries {
			e := &tr.Entries[i]
			if e.IsLoad() {
				before := tr.StoresBefore(i)
				if int64(e.DepStore) > before {
					return false
				}
				if e.DepStore > 0 && tr.DepDist(i) != before-int64(e.DepStore) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: for word-aligned word stores/loads, the forwarded value always
// equals the store value.
func TestForwardValueWordProperty(t *testing.T) {
	f := func(addr, val uint32) bool {
		a := addr &^ 3
		s := st(isa.OpSW, a, val)
		l := ld(isa.OpLW, a)
		return ForwardValue(&s, &l) == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
