// Package tlb models the translation lookaside buffer consulted by
// address-generation MicroOps. In DMDP the AGI translates the virtual
// address and stores the *physical* address in the address register, so
// retire-stage ordering checks need no extra translation (paper §IV-A);
// the VIPT L1 hides the translation latency for cache reads, but a TLB
// miss still delays the AGI by the page-walk penalty.
package tlb

// Config sets TLB geometry and the miss penalty.
type Config struct {
	Entries     int
	PageBytes   uint32
	MissPenalty int64
}

// DefaultConfig is a 64-entry fully associative TLB over 4 KiB pages with
// a 20-cycle walk.
func DefaultConfig() Config {
	return Config{Entries: 64, PageBytes: 4096, MissPenalty: 20}
}

// TLB is a fully associative, LRU-replaced translation buffer. The
// reproduction uses identity translation (virtual == physical); only the
// timing of misses matters. Its state is two flat, pointer-free arrays
// with one element per entry; the zero value of each is an empty entry,
// so a fresh TLB is cold.
type TLB struct {
	cfg  Config
	vpns []uint32 // VPN+1 of each valid entry; 0 = empty
	used []int64  // LRU timestamp of each valid entry; 0 when empty
	tick int64
	// last is the entry the previous translation hit or filled. Fills
	// happen only on a miss, so a VPN is never resident twice and a
	// matching last entry is the one the full scan would find.
	last int

	Accesses, Misses int64
}

// New builds a TLB. config.Validate guarantees at least one entry and
// pages of at least two bytes, so VPN+1 never wraps.
func New(cfg Config) *TLB {
	return &TLB{cfg: cfg, vpns: make([]uint32, cfg.Entries), used: make([]int64, cfg.Entries)}
}

// Translate looks up addr's page and returns the extra latency the
// address-generation MicroOp incurs (0 on a hit, the walk penalty on a
// miss, which also fills the TLB).
func (t *TLB) Translate(addr uint32) int64 {
	t.tick++
	t.Accesses++
	key := addr/t.cfg.PageBytes + 1
	if t.vpns[t.last] == key {
		t.used[t.last] = t.tick
		return 0
	}
	for i, v := range t.vpns {
		if v == key {
			t.used[i] = t.tick
			t.last = i
			return 0
		}
	}
	// Miss: the first empty entry, else the least recently used one.
	victim := 0
	for i, v := range t.vpns {
		if t.vpns[victim] == 0 {
			break
		}
		if v == 0 || t.used[i] < t.used[victim] {
			victim = i
		}
	}
	t.Misses++
	t.vpns[victim], t.used[victim] = key, t.tick
	t.last = victim
	return t.cfg.MissPenalty
}

// MissRate returns Misses/Accesses.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}
