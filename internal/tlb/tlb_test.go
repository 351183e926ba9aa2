package tlb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

func TestMissThenHit(t *testing.T) {
	b := New(Config{Entries: 4, PageBytes: 4096, MissPenalty: 20})
	if lat := b.Translate(0x1000); lat != 20 {
		t.Fatalf("cold miss latency %d", lat)
	}
	if lat := b.Translate(0x1ffc); lat != 0 {
		t.Fatalf("same-page hit latency %d", lat)
	}
	if lat := b.Translate(0x2000); lat != 20 {
		t.Fatalf("new page latency %d", lat)
	}
	if b.Accesses != 3 || b.Misses != 2 {
		t.Fatalf("stats %d/%d", b.Accesses, b.Misses)
	}
}

func TestLRUReplacement(t *testing.T) {
	b := New(Config{Entries: 2, PageBytes: 4096, MissPenalty: 20})
	b.Translate(0x0000) // page 0
	b.Translate(0x1000) // page 1
	b.Translate(0x0000) // page 0 touched again
	b.Translate(0x2000) // evicts page 1
	if lat := b.Translate(0x0000); lat != 0 {
		t.Fatal("page 0 should have survived")
	}
	if lat := b.Translate(0x1000); lat != 20 {
		t.Fatal("page 1 should have been evicted")
	}
}

func TestMissRate(t *testing.T) {
	b := New(DefaultConfig())
	b.Translate(0)
	b.Translate(0)
	b.Translate(4)
	b.Translate(8)
	if got := b.MissRate(); got != 0.25 {
		t.Fatalf("miss rate %f", got)
	}
}

// scanEntry is one entry of the reference TLB.
type scanEntry struct {
	vpn   uint32
	valid bool
	used  int64
}

// scanTLB is the reference translation: a full LRU scan over structured
// entries on every access, with no remembered entry.
type scanTLB struct {
	entries []scanEntry
	tick    int64
}

func (t *scanTLB) translate(vpn uint32) bool {
	t.tick++
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn {
			e.used = t.tick
			return true
		}
		if !t.entries[victim].valid {
			continue
		}
		if !e.valid || e.used < t.entries[victim].used {
			victim = i
		}
	}
	t.entries[victim] = scanEntry{vpn: vpn, valid: true, used: t.tick}
	return false
}

// load installs a canonical warm encoding the way LoadWarmState
// specifies it: the listed VPNs oldest first with used = 1..n.
func (t *scanTLB) load(snap []byte) {
	n := int(binary.LittleEndian.Uint16(snap))
	clear(t.entries)
	for k := 0; k < n; k++ {
		t.entries[k] = scanEntry{vpn: binary.LittleEndian.Uint32(snap[2+4*k:]), valid: true, used: int64(k + 1)}
	}
	t.tick = int64(len(t.entries))
}

// sameState reports where b's flat arrays differ from the reference's
// entries, or "" when they agree.
func sameState(b *TLB, ref *scanTLB) string {
	for i, e := range ref.entries {
		want := uint32(0)
		if e.valid {
			want = e.vpn + 1
		}
		if b.vpns[i] != want || b.used[i] != e.used {
			return fmt.Sprintf("entry %d: vpn+1 %d used %d, reference %+v", i, b.vpns[i], b.used[i], e)
		}
	}
	if b.tick != ref.tick {
		return fmt.Sprintf("tick %d, reference %d", b.tick, ref.tick)
	}
	return ""
}

// TestLastHitMatchesFullScan drives the TLB and the full-scan reference
// with page streams that mix repeats, strides and random pages, and
// requires identical hit/miss outcomes and identical entry state. Every
// 1000 accesses the state goes through AppendWarmState, LoadWarmState
// and CopyWarmFrom, which must reproduce the canonical bytes exactly.
func TestLastHitMatchesFullScan(t *testing.T) {
	cfg := Config{Entries: 8, PageBytes: 4096, MissPenalty: 20}
	b := New(cfg)
	ref := &scanTLB{entries: make([]scanEntry, cfg.Entries)}
	seed := uint32(12345)
	for i := 0; i < 20000; i++ {
		seed = seed*1664525 + 1013904223
		var page uint32
		switch seed >> 30 {
		case 0, 1:
			page = seed >> 28 // small hot set
		case 2:
			page = uint32(i / 7) // slow stride
		default:
			page = seed >> 20 // wide random
		}
		hit := b.Translate(page*cfg.PageBytes+seed%cfg.PageBytes) == 0
		if want := ref.translate(page); hit != want {
			t.Fatalf("access %d page %d: hit=%v, reference %v", i, page, hit, want)
		}
		if i%1000 == 0 {
			// A warm install in the middle must not confuse the shortcut.
			snap := b.AppendWarmState(nil)
			loaded := New(cfg)
			if _, err := loaded.LoadWarmState(snap); err != nil {
				t.Fatal(err)
			}
			b.CopyWarmFrom(loaded)
			ref.load(snap)
			if again := b.AppendWarmState(nil); !bytes.Equal(again, snap) {
				t.Fatalf("access %d: warm round trip changed the encoding", i)
			}
		}
		if d := sameState(b, ref); d != "" {
			t.Fatalf("access %d: %s", i, d)
		}
	}
}

// TestFreshTLBIsEmpty checks that a new TLB holds no entry: its first
// translation of any page misses, and its warm encoding is empty.
func TestFreshTLBIsEmpty(t *testing.T) {
	b := New(DefaultConfig())
	if got := b.AppendWarmState(nil); !bytes.Equal(got, []byte{0, 0}) {
		t.Fatalf("fresh warm state % x, want 00 00", got)
	}
	for _, addr := range []uint32{0, 0x1000, 0xffff_f000} {
		if lat := New(DefaultConfig()).Translate(addr); lat != 20 {
			t.Fatalf("fresh TLB: translate %#x latency %d, want a miss", addr, lat)
		}
	}
}

// TestLoadWarmStateRejectsImpossibleVPN feeds a VPN no 32-bit address
// can produce under 4 KiB pages.
func TestLoadWarmStateRejectsImpossibleVPN(t *testing.T) {
	b := New(DefaultConfig())
	snap := binary.LittleEndian.AppendUint16(nil, 2)
	snap = binary.LittleEndian.AppendUint32(snap, 0xfffff) // the last page: fine
	snap = binary.LittleEndian.AppendUint32(snap, 0x100000)
	if _, err := b.LoadWarmState(snap); err == nil {
		t.Fatal("LoadWarmState accepted vpn 0x100000 with 4 KiB pages")
	}
	if _, err := b.LoadWarmState(snap[:6]); err == nil {
		t.Fatal("LoadWarmState accepted a truncated encoding")
	}
	ok := binary.LittleEndian.AppendUint16(nil, 1)
	ok = binary.LittleEndian.AppendUint32(ok, 0xfffff)
	if _, err := b.LoadWarmState(ok); err != nil {
		t.Fatal(err)
	}
	if lat := b.Translate(0xffff_fffc); lat != 0 {
		t.Fatalf("loaded last page: latency %d, want a hit", lat)
	}
}
