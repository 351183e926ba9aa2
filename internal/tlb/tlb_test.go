package tlb

import "testing"

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

// scanTLB is the reference translation: a full LRU scan on every access,
// with no remembered entry.
type scanTLB struct {
	entries []entry
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
	t.entries[victim] = entry{vpn: vpn, valid: true, used: t.tick}
	return false
}

// TestLastHitMatchesFullScan drives the TLB and the full-scan reference
// with page streams that mix repeats, strides and random pages, and
// requires identical hit/miss outcomes and identical entry state.
func TestLastHitMatchesFullScan(t *testing.T) {
	cfg := Config{Entries: 8, PageBytes: 4096, MissPenalty: 20}
	b := New(cfg)
	ref := &scanTLB{entries: make([]entry, cfg.Entries)}
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
			if _, err := b.LoadWarmState(snap); err != nil {
				t.Fatal(err)
			}
			if _, err := (&TLB{cfg: cfg, entries: ref.entries}).LoadWarmState(snap); err != nil {
				t.Fatal(err)
			}
			ref.tick = int64(cfg.Entries)
		}
	}
	for i := range ref.entries {
		if b.entries[i] != ref.entries[i] {
			t.Fatalf("entry %d: %+v, reference %+v", i, b.entries[i], ref.entries[i])
		}
	}
}
