package cache

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refCache is a straightforward reference model: per-set LRU lists.
type refCache struct {
	lineBytes int
	ways      int
	sets      map[uint32][]refLine // set index -> lines, MRU first
	numSets   uint32
}

type refLine struct {
	addr  uint32 // line address
	dirty bool
}

func newRefCache(cfg Config) *refCache {
	return &refCache{
		lineBytes: cfg.LineBytes,
		ways:      cfg.Ways,
		numSets:   uint32(cfg.SizeBytes / cfg.LineBytes / cfg.Ways),
		sets:      make(map[uint32][]refLine),
	}
}

func (r *refCache) setOf(addr uint32) (line, si uint32) {
	line = addr &^ uint32(r.lineBytes-1)
	return line, (line / uint32(r.lineBytes)) % r.numSets
}

// access returns whether addr hit and, on a miss that evicts a dirty
// line, that line's address.
func (r *refCache) access(addr uint32, write bool) (hit bool, wbAddr uint32, wb bool) {
	line, si := r.setOf(addr)
	set := r.sets[si]
	for i, l := range set {
		if l.addr == line {
			// Move to MRU.
			copy(set[1:i+1], set[:i])
			set[0] = refLine{addr: line, dirty: l.dirty || write}
			return true, 0, false
		}
	}
	// Miss: insert at MRU, evict LRU.
	set = append([]refLine{{addr: line, dirty: write}}, set...)
	if len(set) > r.ways {
		if v := set[r.ways]; v.dirty {
			wbAddr, wb = v.addr, true
		}
		set = set[:r.ways]
	}
	r.sets[si] = set
	return false, wbAddr, wb
}

func (r *refCache) invalidate(addr uint32) bool {
	line, si := r.setOf(addr)
	set := r.sets[si]
	for i, l := range set {
		if l.addr == line {
			r.sets[si] = append(set[:i], set[i+1:]...)
			return true
		}
	}
	return false
}

// warmState renders the canonical warm encoding from the model: per set,
// the count and then the lines oldest first, as tag and dirty byte.
func (r *refCache) warmState(tagShift uint) []byte {
	var buf []byte
	for si := uint32(0); si < r.numSets; si++ {
		set := r.sets[si]
		buf = append(buf, byte(len(set)))
		for i := len(set) - 1; i >= 0; i-- {
			buf = binary.LittleEndian.AppendUint32(buf, set[i].addr>>tagShift)
			d := byte(0)
			if set[i].dirty {
				d = 1
			}
			buf = append(buf, d)
		}
	}
	return buf
}

// TestCacheMatchesReferenceLRU drives the cache and the reference model
// with identical random streams of reads, writes and invalidations and
// requires identical hit/miss and writeback sequences. Every 500
// operations the cache's warm encoding must equal the model's, and a
// round trip through AppendWarmState, LoadWarmState into a fresh cache
// and CopyWarmFrom back must leave the encoding byte-identical.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 2048, LineBytes: 64, Ways: 2, Latency: 1},
		{SizeBytes: 4096, LineBytes: 32, Ways: 8, Latency: 1},
		{SizeBytes: 256, LineBytes: 64, Ways: 4, Latency: 1}, // one set
	} {
		c := NewCache(cfg)
		ref := newRefCache(cfg)
		r := rand.New(rand.NewSource(99))
		accesses := int64(0)
		for i := 0; i < 20000; i++ {
			addr := uint32(r.Intn(1 << 14))
			if r.Intn(10) == 0 {
				if got, want := c.Invalidate(addr), ref.invalidate(addr); got != want {
					t.Fatalf("%+v op %d: invalidate 0x%x present=%v, reference %v", cfg, i, addr, got, want)
				}
			} else {
				write := r.Intn(3) == 0
				hit, wbAddr, wb := c.access(addr, write, true)
				accesses++
				wantHit, wantAddr, wantWB := ref.access(addr, write)
				if hit != wantHit || wb != wantWB || wbAddr != wantAddr {
					t.Fatalf("%+v op %d addr 0x%x: hit=%v wb=%v@0x%x, reference hit=%v wb=%v@0x%x",
						cfg, i, addr, hit, wb, wbAddr, wantHit, wantWB, wantAddr)
				}
			}
			if i%500 != 0 {
				continue
			}
			snap := c.AppendWarmState(nil)
			if want := ref.warmState(c.tagShift); !bytes.Equal(snap, want) {
				t.Fatalf("%+v op %d: warm encoding differs from the reference", cfg, i)
			}
			loaded := NewCache(cfg)
			if n, err := loaded.LoadWarmState(snap); err != nil || n != len(snap) {
				t.Fatalf("%+v op %d: LoadWarmState consumed %d of %d bytes: %v", cfg, i, n, len(snap), err)
			}
			c.CopyWarmFrom(loaded)
			if again := c.AppendWarmState(nil); !bytes.Equal(again, snap) {
				t.Fatalf("%+v op %d: warm round trip changed the encoding", cfg, i)
			}
		}
		if c.Accesses != accesses {
			t.Fatalf("%+v: accesses %d, want %d", cfg, c.Accesses, accesses)
		}
	}
}

// TestFreshCacheIsEmpty checks that a new cache holds no line: its warm
// encoding counts zero ways in every set, and no address hits, address
// 0 (tag 0) included.
func TestFreshCacheIsEmpty(t *testing.T) {
	cfg := DefaultHierarchyConfig().L2
	c := NewCache(cfg)
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	if got := c.AppendWarmState(nil); !bytes.Equal(got, make([]byte, sets)) {
		t.Fatal("fresh cache's warm encoding is not all-empty")
	}
	for _, addr := range []uint32{0, 64, 0x1234_5678, 0xffff_ffc0} {
		if c.Lookup(addr) {
			t.Fatalf("fresh cache holds 0x%x", addr)
		}
	}
}

// TestLoadWarmStateRejectsImpossibleTag feeds a tag wider than the
// address bits left above the set index, which no access produces.
func TestLoadWarmStateRejectsImpossibleTag(t *testing.T) {
	cfg := Config{SizeBytes: 1024, LineBytes: 64, Ways: 2, Latency: 1} // 8 sets: 23-bit tags
	enc := func(tag uint32) []byte {
		buf := []byte{1}
		buf = binary.LittleEndian.AppendUint32(buf, tag)
		buf = append(buf, 0)
		return append(buf, make([]byte, 7)...) // sets 1..7 empty
	}
	c := NewCache(cfg)
	if _, err := c.LoadWarmState(enc(1 << 23)); err == nil {
		t.Fatal("LoadWarmState accepted a 24-bit tag for 8 sets of 64-byte lines")
	}
	if _, err := c.LoadWarmState(enc(1<<23 - 1)); err != nil {
		t.Fatal(err)
	}
	if !c.Lookup(0xffff_fe00) {
		t.Fatal("the largest tag did not load into set 0")
	}
}

// TestHierarchyMonotoneTime: completion times never precede the request.
func TestHierarchyMonotoneTime(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	r := rand.New(rand.NewSource(5))
	now := int64(0)
	for i := 0; i < 5000; i++ {
		addr := uint32(r.Intn(1 << 22))
		done := h.Access(now, addr, r.Intn(4) == 0)
		if done < now {
			t.Fatalf("completion %d before request %d", done, now)
		}
		if r.Intn(2) == 0 {
			now = done
		} else {
			now += int64(r.Intn(10))
		}
	}
}
