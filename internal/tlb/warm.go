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
	order := make([]int, 0, len(t.vpns))
	for i, v := range t.vpns {
		if v == 0 {
			continue
		}
		j := len(order)
		order = append(order, i)
		for j > 0 && t.used[order[j-1]] > t.used[i] {
			order[j] = order[j-1]
			j--
		}
		order[j] = i
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(order)))
	for _, i := range order {
		buf = binary.LittleEndian.AppendUint32(buf, t.vpns[i]-1)
	}
	return buf
}

// LoadWarmState replaces the TLB's state with the encoded state and
// returns the bytes consumed. A VPN no address can produce is an error.
// Counters are untouched.
func (t *TLB) LoadWarmState(buf []byte) (int, error) {
	if len(buf) < 2 {
		return 0, fmt.Errorf("tlb: warm state truncated")
	}
	n := int(binary.LittleEndian.Uint16(buf))
	if n > len(t.vpns) {
		return 0, fmt.Errorf("tlb: warm state holds %d entries (tlb has %d)", n, len(t.vpns))
	}
	off := 2
	if off+4*n > len(buf) {
		return 0, fmt.Errorf("tlb: warm state truncated")
	}
	maxVPN := ^uint32(0) / t.cfg.PageBytes
	clear(t.vpns)
	clear(t.used)
	for k := 0; k < n; k++ {
		vpn := binary.LittleEndian.Uint32(buf[off:])
		if vpn > maxVPN {
			return 0, fmt.Errorf("tlb: warm state entry %d has vpn %#x (max %#x)", k, vpn, maxVPN)
		}
		t.vpns[k], t.used[k] = vpn+1, int64(k+1)
		off += 4
	}
	t.tick = int64(len(t.vpns))
	t.last = 0 // entry 0 is the first match whatever the loaded bytes hold
	return off, nil
}

// CopyWarmFrom transplants src's state into t (same geometry assumed).
// Counters are untouched.
func (t *TLB) CopyWarmFrom(src *TLB) {
	copy(t.vpns, src.vpns)
	copy(t.used, src.used)
	t.tick = src.tick
	t.last = 0
}

// PageBytes exposes the page size so the warm hot loop can implement a
// last-VPN shortcut: consecutive accesses to the same page may skip the
// fully associative scan, because the entry they would touch is already
// the most recently used and re-bumping it does not change the relative
// LRU order the canonical encoding preserves.
func (t *TLB) PageBytes() uint32 { return t.cfg.PageBytes }
