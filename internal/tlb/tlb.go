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

type entry struct {
	vpn   uint32
	valid bool
	used  int64
}

// TLB is a fully associative, LRU-replaced translation buffer. The
// reproduction uses identity translation (virtual == physical); only the
// timing of misses matters.
type TLB struct {
	cfg     Config
	entries []entry
	tick    int64
	// last is the entry the previous translation hit or filled. Fills
	// happen only on a miss, so a VPN is never resident twice and a
	// matching last entry is the one the full scan would find.
	last int

	Accesses, Misses int64
}

// New builds a TLB.
func New(cfg Config) *TLB {
	return &TLB{cfg: cfg, entries: make([]entry, cfg.Entries)}
}

// Translate looks up addr's page and returns the extra latency the
// address-generation MicroOp incurs (0 on a hit, the walk penalty on a
// miss, which also fills the TLB).
func (t *TLB) Translate(addr uint32) int64 {
	t.tick++
	t.Accesses++
	vpn := addr / t.cfg.PageBytes
	if e := &t.entries[t.last]; e.valid && e.vpn == vpn {
		e.used = t.tick
		return 0
	}
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn {
			e.used = t.tick
			t.last = i
			return 0
		}
		if !t.entries[victim].valid {
			continue
		}
		if !e.valid || e.used < t.entries[victim].used {
			victim = i
		}
	}
	t.Misses++
	t.entries[victim] = entry{vpn: vpn, valid: true, used: t.tick}
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
