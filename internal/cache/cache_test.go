package cache

import (
	"testing"

	"dmdp/internal/dram"
)

func smallCfg() Config {
	return Config{SizeBytes: 1024, LineBytes: 64, Ways: 2, Latency: 4, MSHRs: 4}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache(smallCfg())
	if hit, _, _ := c.access(0x1000, false, true); hit {
		t.Fatal("cold cache should miss")
	}
	if hit, _, _ := c.access(0x1000, false, true); !hit {
		t.Fatal("second access should hit")
	}
	if hit, _, _ := c.access(0x103c, false, true); !hit {
		t.Fatal("same line should hit")
	}
	if c.Accesses != 3 || c.Misses != 1 {
		t.Fatalf("stats %d/%d", c.Accesses, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewCache(smallCfg()) // 8 sets, 2 ways
	setStride := uint32(8 * 64)
	// Three lines mapping to set 0.
	a, b, d := uint32(0), setStride, 2*setStride
	c.access(a, false, true)
	c.access(b, false, true)
	c.access(a, false, true) // a more recent than b
	c.access(d, false, true) // evicts b (LRU)
	if !c.Lookup(a) || c.Lookup(b) || !c.Lookup(d) {
		t.Fatal("LRU eviction picked the wrong victim")
	}
}

func TestDirtyEvictionReportsWriteback(t *testing.T) {
	c := NewCache(smallCfg())
	setStride := uint32(8 * 64)
	c.access(0, true, true) // dirty
	c.access(setStride, false, true)
	_, wbAddr, wb := c.access(2*setStride, false, true) // evicts line 0 (dirty)
	if !wb || wbAddr != 0 {
		t.Fatalf("expected writeback of line 0, got wb=%v addr=0x%x", wb, wbAddr)
	}
	if c.Writebacks != 1 {
		t.Fatalf("writebacks %d", c.Writebacks)
	}
}

func TestInvalidate(t *testing.T) {
	c := NewCache(smallCfg())
	c.access(0x2000, false, true)
	if !c.Invalidate(0x2000) {
		t.Fatal("invalidate missed present line")
	}
	if c.Lookup(0x2000) {
		t.Fatal("line still present after invalidate")
	}
	if c.Invalidate(0x2000) {
		t.Fatal("invalidate hit absent line")
	}
}

func hierCfg() HierarchyConfig {
	return HierarchyConfig{
		L1D:  Config{SizeBytes: 1024, LineBytes: 64, Ways: 2, Latency: 4, MSHRs: 2},
		L2:   Config{SizeBytes: 8192, LineBytes: 64, Ways: 4, Latency: 12},
		DRAM: dram.DefaultConfig(),
	}
}

func TestHierarchyLatencyOrdering(t *testing.T) {
	h := NewHierarchy(hierCfg())
	dramDone := h.Access(0, 0x10000, false) // cold: DRAM
	l1Done := h.Access(dramDone, 0x10000, false)
	if got := l1Done - dramDone; got != 4 {
		t.Fatalf("L1 hit latency %d, want 4", got)
	}
	if dramDone < 4+12 {
		t.Fatalf("DRAM fill latency %d implausibly low", dramDone)
	}
	// Evict from L1 but not L2, then re-access: L2 hit latency.
	h.Access(l1Done, 0x10000+1024, false) // maps to same L1 set
	h.Access(l1Done, 0x10000+2048, false) // evicts 0x10000 from L1
	if h.L1D.Lookup(0x10000) {
		t.Skip("line not evicted; geometry changed")
	}
	before := h.L2Hits
	done := h.Access(100000, 0x10000, false)
	if h.L2Hits != before+1 {
		t.Fatalf("expected an L2 hit")
	}
	if got := done - 100000; got != 4+12 {
		t.Fatalf("L2 hit latency %d, want 16", got)
	}
}

func TestMSHRMerge(t *testing.T) {
	h := NewHierarchy(hierCfg())
	a := h.Access(0, 0x20000, false)
	b := h.Access(1, 0x20004, false) // same line, outstanding
	if h.MSHRMerges != 1 {
		t.Fatalf("merges %d", h.MSHRMerges)
	}
	if b > a+4 {
		t.Fatalf("merged access %d should complete near %d", b, a)
	}
}

func TestMSHRStall(t *testing.T) {
	h := NewHierarchy(hierCfg())
	h.Access(0, 0x30000, false)
	h.Access(0, 0x40000, false)
	// Third distinct miss at cycle 0 with 2 MSHRs must stall.
	h.Access(0, 0x50000, false)
	if h.MSHRStalls != 1 {
		t.Fatalf("stalls %d", h.MSHRStalls)
	}
}

// TestHierarchyInvalidate: a remote invalidation drops the line from
// L1 only; it stays resident in the shared L2, so the next access is an
// L2 hit.
func TestHierarchyInvalidate(t *testing.T) {
	h := NewHierarchy(hierCfg())
	done := h.Access(0, 0x60000, false)
	if !h.L1D.Invalidate(0x60000) {
		t.Fatal("invalidate missed")
	}
	before := h.L2Hits
	redo := h.Access(done, 0x60000, false)
	if h.L2Hits != before+1 {
		t.Fatal("access after invalidate should hit in L2")
	}
	if got := redo - done; got != 4+12 {
		t.Fatalf("access after invalidate took %d cycles, want the L2 hit latency 16", got)
	}
}

func TestMissRate(t *testing.T) {
	c := NewCache(smallCfg())
	c.access(0, false, true)
	c.access(0, false, true)
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate %f", c.MissRate())
	}
}

func TestDeterministicHierarchy(t *testing.T) {
	run := func() []int64 {
		h := NewHierarchy(hierCfg())
		var out []int64
		now := int64(0)
		for i := 0; i < 500; i++ {
			addr := uint32((i * 977) % (1 << 16))
			now = h.Access(now, addr, i%4 == 0)
			out = append(out, now)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}

func TestNextLinePrefetch(t *testing.T) {
	cfg := hierCfg()
	cfg.NextLinePrefetch = true
	h := NewHierarchy(cfg)
	// A demand miss on line X prefetches X+64.
	first := h.Access(0, 0x10000, false)
	if h.Prefetches != 1 {
		t.Fatalf("prefetches %d", h.Prefetches)
	}
	// Long after the prefetch data arrived, the sequential line is an
	// L1 hit.
	late := first + 1000
	seq := h.Access(late, 0x10040, false)
	if seq != late+h.L1D.cfg.Latency {
		t.Fatalf("prefetched line should hit L1: done %d, want %d", seq, late+h.L1D.cfg.Latency)
	}
	// Hitting the prefetched line must not issue another prefetch.
	if h.Prefetches != 1 {
		t.Fatalf("hits must not prefetch: %d", h.Prefetches)
	}
}

func TestPrefetchSpeedsUpStreams(t *testing.T) {
	run := func(pf bool) int64 {
		cfg := hierCfg()
		cfg.NextLinePrefetch = pf
		h := NewHierarchy(cfg)
		now := int64(0)
		for i := 0; i < 2000; i++ {
			now = h.Access(now, uint32(0x40000+i*8), false)
		}
		return now
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("prefetching stream took %d cycles, without %d", with, without)
	}
}

func TestPrefetchOffByDefault(t *testing.T) {
	h := NewHierarchy(hierCfg())
	h.Access(0, 0x10000, false)
	if h.Prefetches != 0 {
		t.Fatal("prefetcher must be off by default")
	}
}

// TestNewCacheAllocatesPerTable pins the table layout: one flat array
// per line field (tags, LRU stamps, dirty bits), not one slice per set
// (a 2 MiB L2 has 4096 sets), each with one element per line.
func TestNewCacheAllocatesPerTable(t *testing.T) {
	cfg := DefaultHierarchyConfig().L2
	if n := testing.AllocsPerRun(5, func() { NewCache(cfg) }); n > 4 {
		t.Fatalf("NewCache made %.0f allocations, want <= 4 (cache, tags, used, dirty)", n)
	}
	c := NewCache(cfg)
	lines := cfg.SizeBytes / cfg.LineBytes
	if len(c.tags) != lines || len(c.used) != lines || len(c.dirty) != lines {
		t.Fatalf("arrays hold %d/%d/%d lines, want %d", len(c.tags), len(c.used), len(c.dirty), lines)
	}
}
