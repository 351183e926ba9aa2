// Package cache models the data cache hierarchy: a VIPT L1 (the paper
// reads the data and tag arrays in parallel with the TLB lookup, so
// non-bypassing loads pay no extra translation latency) backed by a
// unified L2 and DRAM, with MSHR-style merging of outstanding misses.
// Timing is returned as absolute completion cycles so the trace-driven
// core can schedule wakeups deterministically.
package cache

import (
	"fmt"

	"dmdp/internal/dram"
)

// Config describes one cache level.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
	Latency   int64 // access (hit) latency in cycles
	MSHRs     int   // max outstanding misses (0 = unlimited)
}

// Valid reports whether the geometry has a set count that is a positive
// power of two (tags and set indices are shifts and masks of the
// address) and a tag narrower than the address: the tag array stores
// tag+1, so a full 32-bit tag (one set of one-byte lines) would not fit.
func (c Config) Valid() bool {
	if c.LineBytes <= 0 || c.Ways <= 0 {
		return false
	}
	n := c.SizeBytes / c.LineBytes / c.Ways
	return n > 0 && n&(n-1) == 0 && c.LineBytes*n > 1
}

// Cache is one level of the hierarchy. Its tag state is three flat,
// pointer-free arrays with one element per line, set-major: set s owns
// lines [s*Ways, (s+1)*Ways). The zero value of every element is an
// empty line, so a freshly made cache is cold.
type Cache struct {
	cfg   Config
	tags  []uint32 // tag+1 of each valid line; 0 = empty
	used  []int64  // LRU timestamp of each valid line; 0 when empty
	dirty []bool

	setShift uint
	setMask  uint32
	tagShift uint // setShift + log2(set count): tags are addr >> tagShift
	tick     int64

	// Stats.
	Accesses, Misses, Evictions, Writebacks, Invalidations int64
}

// NewCache builds a cache level; size/line/ways must be powers of two and
// consistent. It panics on a geometry that is not Valid: config.Validate
// rejects those before any cache is built.
func NewCache(cfg Config) *Cache {
	if !cfg.Valid() {
		panic(fmt.Sprintf("cache: invalid geometry %+v", cfg))
	}
	numSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	lines := numSets * cfg.Ways
	c := &Cache{
		cfg:      cfg,
		tags:     make([]uint32, lines),
		used:     make([]int64, lines),
		dirty:    make([]bool, lines),
		setShift: uint(log2(cfg.LineBytes)),
		setMask:  uint32(numSets - 1),
	}
	c.tagShift = c.setShift + uint(log2(numSets))
	return c
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

func (c *Cache) setIndex(addr uint32) uint32 { return addr >> c.setShift & c.setMask }

// key returns the tag-array value of addr's line: its tag plus one.
func (c *Cache) key(addr uint32) uint32 { return addr>>c.tagShift + 1 }

// numSets returns the set count.
func (c *Cache) numSets() int { return len(c.tags) / c.cfg.Ways }

// LineAddr returns the line-aligned address.
func (c *Cache) LineAddr(addr uint32) uint32 {
	return addr &^ uint32(c.cfg.LineBytes-1)
}

// find returns the line index holding addr, or -1.
func (c *Cache) find(addr uint32) int {
	base := int(c.setIndex(addr)) * c.cfg.Ways
	key := c.key(addr)
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == key {
			return base + i
		}
	}
	return -1
}

// Lookup probes without modifying replacement state.
func (c *Cache) Lookup(addr uint32) bool { return c.find(addr) >= 0 }

// access touches the line; returns hit and, on fill, whether a dirty line
// was evicted (with its reconstructed address for the writeback).
func (c *Cache) access(addr uint32, write bool, fill bool) (hit bool, wbAddr uint32, wb bool) {
	c.tick++
	c.Accesses++
	if i := c.find(addr); i >= 0 {
		c.used[i] = c.tick
		if write {
			c.dirty[i] = true
		}
		return true, 0, false
	}
	c.Misses++
	if !fill {
		return false, 0, false
	}
	// Fill: evict LRU. An empty way past way 0 is taken at once; failing
	// that, an empty way 0 (used 0) beats every valid way.
	si := c.setIndex(addr)
	base := int(si) * c.cfg.Ways
	tags, used := c.tags[base:base+c.cfg.Ways], c.used[base:base+c.cfg.Ways]
	victim := 0
	for i := 1; i < len(tags); i++ {
		if tags[i] == 0 {
			victim = i
			break
		}
		if used[i] < used[victim] {
			victim = i
		}
	}
	v := base + victim
	if tags[victim] != 0 {
		c.Evictions++
		if c.dirty[v] {
			c.Writebacks++
			wb = true
			wbAddr = (tags[victim]-1)<<c.tagShift | si<<c.setShift
		}
	}
	tags[victim], used[victim], c.dirty[v] = c.key(addr), c.tick, write
	return false, wbAddr, wb
}

// Invalidate drops the line containing addr (consistency hook). It
// reports whether the line was present.
func (c *Cache) Invalidate(addr uint32) bool {
	i := c.find(addr)
	if i < 0 {
		return false
	}
	c.tags[i], c.used[i], c.dirty[i] = 0, 0, false
	c.Invalidations++
	return true
}

// MissRate returns Misses/Accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// mshr tracks one outstanding line fill.
type mshr struct {
	lineAddr uint32
	readyAt  int64
}

// Hierarchy is the L1D + L2 + DRAM stack used by the cores.
type Hierarchy struct {
	L1D  *Cache
	L2   *Cache
	DRAM *dram.DRAM

	outstanding []mshr
	maxMSHRs    int
	prefetch    bool

	// Stats.
	L1Hits, L2Hits, DRAMFills, MSHRMerges, MSHRStalls, Prefetches int64
}

// HierarchyConfig collects the whole stack's parameters.
type HierarchyConfig struct {
	L1D  Config
	L2   Config
	DRAM dram.Config
	// NextLinePrefetch issues a tagged next-line prefetch on every L1
	// demand miss (sequential streams hide most of their miss latency).
	NextLinePrefetch bool
}

// DefaultHierarchyConfig mirrors the paper's 4-cycle L1 access and a
// contemporary L2/DRAM behind it.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1D:  Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4, Latency: 4, MSHRs: 16},
		L2:   Config{SizeBytes: 2 << 20, LineBytes: 64, Ways: 8, Latency: 12},
		DRAM: dram.DefaultConfig(),
	}
}

// NewHierarchy builds the full stack.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		L1D:      NewCache(cfg.L1D),
		L2:       NewCache(cfg.L2),
		DRAM:     dram.New(cfg.DRAM),
		maxMSHRs: cfg.L1D.MSHRs,
		prefetch: cfg.NextLinePrefetch,
	}
}

// Access performs a data access at cycle now and returns the absolute
// cycle at which the data is available (for loads) or accepted (for
// stores). Write misses allocate (write-allocate, write-back).
//
// Latency model: L1 hit = L1 latency; L2 hit = L1 + L2 latency; otherwise
// the DRAM completion time. The L1 tag is filled at access time but the
// line is tracked in an MSHR until its data returns, so accesses to a line
// in flight merge with (and wait for) the outstanding fill.
func (h *Hierarchy) Access(now int64, addr uint32, write bool) int64 {
	lineAddr := h.L1D.LineAddr(addr)
	h.pruneMSHRs(now)
	for _, m := range h.outstanding {
		if m.lineAddr == lineAddr {
			// The line is being filled: merge. Touch the L1 for
			// replacement/dirty state; it hits the pre-filled tag.
			h.L1D.access(addr, write, true)
			h.MSHRMerges++
			done := m.readyAt
			if min := now + h.L1D.cfg.Latency; done < min {
				done = min
			}
			return done
		}
	}

	hit, wbAddr, wb := h.L1D.access(addr, write, true)
	if wb {
		// Dirty eviction from L1 goes to L2.
		if _, wb2Addr, wb2 := h.L2.access(wbAddr, true, true); wb2 {
			h.DRAM.Access(now, wb2Addr, true) // occupies a bank; not waited on
		}
	}
	if hit {
		h.L1Hits++
		return now + h.L1D.cfg.Latency
	}

	start := now
	if h.maxMSHRs > 0 && len(h.outstanding) >= h.maxMSHRs {
		// All MSHRs busy: wait for the earliest to free.
		h.MSHRStalls++
		earliest := h.outstanding[0].readyAt
		for _, m := range h.outstanding[1:] {
			if m.readyAt < earliest {
				earliest = m.readyAt
			}
		}
		start = earliest
		h.pruneMSHRsAt(start)
	}

	var ready int64
	l2hit, wb2Addr, wb2 := h.L2.access(addr, false, true)
	if wb2 {
		h.DRAM.Access(start, wb2Addr, true)
	}
	if l2hit {
		h.L2Hits++
		ready = start + h.L1D.cfg.Latency + h.L2.cfg.Latency
	} else {
		h.DRAMFills++
		ready = h.DRAM.Access(start+h.L1D.cfg.Latency+h.L2.cfg.Latency, lineAddr, false)
	}
	h.outstanding = append(h.outstanding, mshr{lineAddr: lineAddr, readyAt: ready})

	if h.prefetch {
		h.prefetchLine(start, lineAddr+uint32(h.L1D.cfg.LineBytes))
	}
	return ready
}

// prefetchLine issues a non-blocking next-line fill: the line's tags are
// installed and an MSHR tracks the in-flight data, so a demand access
// merges with (and waits for) it instead of paying the full miss.
func (h *Hierarchy) prefetchLine(now int64, lineAddr uint32) {
	if h.L1D.Lookup(lineAddr) {
		return
	}
	for _, m := range h.outstanding {
		if m.lineAddr == lineAddr {
			return
		}
	}
	if h.maxMSHRs > 0 && len(h.outstanding) >= h.maxMSHRs {
		return // never stall a demand access for a prefetch
	}
	h.Prefetches++
	var ready int64
	l2hit, wbAddr, wb := h.L2.access(lineAddr, false, true)
	if wb {
		h.DRAM.Access(now, wbAddr, true)
	}
	if l2hit {
		ready = now + h.L1D.cfg.Latency + h.L2.cfg.Latency
	} else {
		ready = h.DRAM.Access(now+h.L1D.cfg.Latency+h.L2.cfg.Latency, lineAddr, false)
	}
	if _, wb1Addr, wb1 := h.L1D.access(lineAddr, false, true); wb1 {
		if _, wb2Addr, wb2 := h.L2.access(wb1Addr, true, true); wb2 {
			h.DRAM.Access(now, wb2Addr, true)
		}
	}
	h.outstanding = append(h.outstanding, mshr{lineAddr: lineAddr, readyAt: ready})
}

func (h *Hierarchy) pruneMSHRs(now int64) { h.pruneMSHRsAt(now) }

func (h *Hierarchy) pruneMSHRsAt(now int64) {
	kept := h.outstanding[:0]
	for _, m := range h.outstanding {
		if m.readyAt > now {
			kept = append(kept, m)
		}
	}
	h.outstanding = kept
}

// L1Latency exposes the L1 hit latency (the paper's constant 4-cycle
// cache/SQ/SB access time).
func (h *Hierarchy) L1Latency() int64 { return h.L1D.cfg.Latency }

// LineBytes returns the L1 line size.
func (h *Hierarchy) LineBytes() int { return h.L1D.cfg.LineBytes }
