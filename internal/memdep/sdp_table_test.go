package memdep

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refSDPEntry and refSDPTable are a plain reference model of one
// predictor table: per-set slices of structured entries with a valid
// bit, probed and replaced as the paper's LRU tables are.
type refSDPEntry struct {
	tag   uint32
	dist  int64
	conf  uint8
	valid bool
	used  int64
}

type refSDPTable struct {
	sets [][]refSDPEntry
	tick int64
}

func newRefSDPTable(sets, ways int) *refSDPTable {
	t := &refSDPTable{sets: make([][]refSDPEntry, sets)}
	for i := range t.sets {
		t.sets[i] = make([]refSDPEntry, ways)
	}
	return t
}

func (t *refSDPTable) find(index, tag uint32) *refSDPEntry {
	set := t.sets[index%uint32(len(t.sets))]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			t.tick++
			set[i].used = t.tick
			return &set[i]
		}
	}
	return nil
}

func (t *refSDPTable) insert(index, tag uint32, dist int64, conf uint8) {
	set := t.sets[index%uint32(len(t.sets))]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	t.tick++
	set[victim] = refSDPEntry{tag: tag, dist: dist, conf: conf, valid: true, used: t.tick}
}

// warmState renders the canonical encoding: per set, the count and then
// the valid entries oldest first as tag, distance and confidence.
func (t *refSDPTable) warmState() []byte {
	var buf []byte
	for _, set := range t.sets {
		var valid []refSDPEntry
		for _, e := range set {
			if e.valid {
				valid = append(valid, e)
			}
		}
		for i := 1; i < len(valid); i++ { // insertion sort by LRU stamp
			for j := i; j > 0 && valid[j-1].used > valid[j].used; j-- {
				valid[j-1], valid[j] = valid[j], valid[j-1]
			}
		}
		buf = append(buf, byte(len(valid)))
		for _, e := range valid {
			buf = binary.LittleEndian.AppendUint32(buf, e.tag)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(e.dist))
			buf = append(buf, e.conf)
		}
	}
	return buf
}

// TestSDPTableMatchesReference drives the flat table and the reference
// with identical random probes, inserts and in-place updates over a
// small tag space (so sets fill and evict), and requires identical
// probe results. Every 300 operations the warm encodings must agree, and
// a round trip through appendWarm, loadWarm into a fresh table and
// copyFrom back must leave the encoding byte-identical.
func TestSDPTableMatchesReference(t *testing.T) {
	const sets, ways = 16, 4
	tab, ref := newSDPTable(sets, ways), newRefSDPTable(sets, ways)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 30000; i++ {
		tag := uint32(r.Intn(200))
		if r.Intn(50) == 0 {
			tag = maxSDPTag - uint32(r.Intn(4)) // the widest tags a PC gives
		}
		index := tag ^ uint32(r.Intn(4))
		got, want := tab.find(index, tag), ref.find(index, tag)
		switch {
		case (got == nil) != (want == nil):
			t.Fatalf("op %d: find(%d, %d) hit=%v, reference hit=%v", i, index, tag, got != nil, want != nil)
		case got == nil:
			dist, conf := int64(r.Intn(64)), uint8(r.Intn(128))
			tab.insert(index, tag, dist, conf)
			ref.insert(index, tag, dist, conf)
		default:
			if got.dist != want.dist || got.conf != want.conf {
				t.Fatalf("op %d: entry dist %d conf %d, reference %d %d", i, got.dist, got.conf, want.dist, want.conf)
			}
			got.conf, want.conf = got.conf/2, want.conf/2
			got.dist, want.dist = int64(i%64), int64(i%64)
		}
		if i%300 != 0 {
			continue
		}
		snap := tab.appendWarm(nil)
		if !bytes.Equal(snap, ref.warmState()) {
			t.Fatalf("op %d: warm encoding differs from the reference", i)
		}
		loaded := newSDPTable(sets, ways)
		if n, err := loaded.loadWarm(snap, 127); err != nil || n != len(snap) {
			t.Fatalf("op %d: loadWarm consumed %d of %d bytes: %v", i, n, len(snap), err)
		}
		tab.copyFrom(loaded)
		if again := tab.appendWarm(nil); !bytes.Equal(again, snap) {
			t.Fatalf("op %d: warm round trip changed the encoding", i)
		}
		// The reference takes the canonical state the same way: ranks
		// 1..n in encoding order.
		for _, set := range ref.sets {
			var order []*refSDPEntry
			for k := range set {
				if set[k].valid {
					order = append(order, &set[k])
				}
			}
			for a := 1; a < len(order); a++ {
				for b := a; b > 0 && order[b-1].used > order[b].used; b-- {
					order[b-1], order[b] = order[b], order[b-1]
				}
			}
			for rank, e := range order {
				e.used = int64(rank + 1)
			}
		}
		ref.tick = ways
	}
}

// TestFreshSDPIsEmpty: a new predictor predicts nothing, for tag 0 too,
// and encodes empty tables.
func TestFreshSDPIsEmpty(t *testing.T) {
	cfg := DefaultSDPConfig(true)
	s := NewSDP(cfg)
	for _, pc := range []uint32{0, 4, 0x0040_0000, 0xffff_fffc} {
		if _, ok := s.Predict(pc, 0); ok {
			t.Fatalf("fresh SDP predicts for pc 0x%x", pc)
		}
	}
	if got := s.AppendWarmState(nil); !bytes.Equal(got, make([]byte, 2*cfg.Sets)) {
		t.Fatal("fresh SDP's warm encoding is not all-empty")
	}
}

// TestSDPLoadWarmStateRejectsImpossibleTag feeds a tag wider than the
// 30 bits a word-aligned PC leaves.
func TestSDPLoadWarmStateRejectsImpossibleTag(t *testing.T) {
	cfg := DefaultSDPConfig(true)
	enc := func(tag uint32) []byte {
		buf := []byte{1}
		buf = binary.LittleEndian.AppendUint32(buf, tag)
		buf = binary.LittleEndian.AppendUint64(buf, 3)
		buf = append(buf, 70)
		return append(buf, make([]byte, 2*cfg.Sets-1)...)
	}
	if _, err := NewSDP(cfg).LoadWarmState(enc(maxSDPTag + 1)); err == nil {
		t.Fatal("LoadWarmState accepted a 31-bit tag")
	}
	s := NewSDP(cfg)
	if _, err := s.LoadWarmState(enc(maxSDPTag)); err != nil {
		t.Fatal(err)
	}
	// The loaded entry sits in the path-insensitive table's set 0.
	if e := s.pi.find(0, maxSDPTag); e == nil || e.dist != 3 || e.conf != 70 {
		t.Fatalf("loaded entry not found as encoded: %+v", e)
	}
}
