package tlb

import (
	"encoding/binary"
	"fmt"
)

// Functional-warming support: snapshot/restore of the TLB's tag state
// through a rank-normalized canonical encoding (see the cache package's
// warm codec for the normalization argument — only the relative LRU
// order matters for future replacement decisions, so serializing the
// entries oldest-to-youngest and reloading with used = 1..k is
// behavior-preserving).

// WarmStateLen returns the maximum encoded warm-state size.
func (t *TLB) WarmStateLen() int { return 2 + 4*t.cfg.Entries }

// AppendWarmState appends the canonical warm encoding: a 2-byte count
// followed by the valid VPNs oldest-to-youngest.
func (t *TLB) AppendWarmState(buf []byte) []byte {
	order := make([]int, 0, len(t.entries))
	for i := range t.entries {
		if !t.entries[i].valid {
			continue
		}
		j := len(order)
		order = append(order, i)
		for j > 0 && t.entries[order[j-1]].used > t.entries[i].used {
			order[j] = order[j-1]
			j--
		}
		order[j] = i
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(order)))
	for _, i := range order {
		buf = binary.LittleEndian.AppendUint32(buf, t.entries[i].vpn)
	}
	return buf
}

// LoadWarmState replaces the TLB's state with the encoded state and
// returns the bytes consumed. Counters are untouched.
func (t *TLB) LoadWarmState(buf []byte) (int, error) {
	if len(buf) < 2 {
		return 0, fmt.Errorf("tlb: warm state truncated")
	}
	n := int(binary.LittleEndian.Uint16(buf))
	if n > len(t.entries) {
		return 0, fmt.Errorf("tlb: warm state holds %d entries (tlb has %d)", n, len(t.entries))
	}
	off := 2
	if off+4*n > len(buf) {
		return 0, fmt.Errorf("tlb: warm state truncated")
	}
	for i := range t.entries {
		t.entries[i] = entry{}
	}
	for k := 0; k < n; k++ {
		t.entries[k] = entry{
			vpn:   binary.LittleEndian.Uint32(buf[off:]),
			valid: true,
			used:  int64(k + 1),
		}
		off += 4
	}
	t.tick = int64(len(t.entries))
	t.last = 0 // entry 0 is the first match whatever the loaded bytes hold
	return off, nil
}

// CopyWarmFrom transplants src's state into t (same geometry assumed).
// Counters are untouched.
func (t *TLB) CopyWarmFrom(src *TLB) {
	copy(t.entries, src.entries)
	t.tick = src.tick
	t.last = 0
}

// PageBytes exposes the page size so the warm hot loop can implement a
// last-VPN shortcut: consecutive accesses to the same page may skip the
// fully associative scan, because the entry they would touch is already
// the most recently used and re-bumping it does not change the relative
// LRU order the canonical encoding preserves.
func (t *TLB) PageBytes() uint32 { return t.cfg.PageBytes }
