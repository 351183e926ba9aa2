package cache

import (
	"encoding/binary"
	"fmt"
)

// Functional-warming support: the warm package drives a Cache as a pure
// tag-state model (WarmAccess) and snapshots/restores that state through
// a canonical byte encoding (AppendWarmState/LoadWarmState). The encoding
// is rank-normalized: ways are serialized oldest-to-youngest by LRU
// timestamp and reloaded with used = 1..k, so only the *relative*
// recency order — the part of the state that determines every future
// replacement decision — survives the round trip. Serialize-then-load is
// therefore behavior-preserving, and two states with equal tag content
// and equal recency order encode to identical bytes regardless of the
// absolute tick values they were built with.

// WarmAccess performs one functional (timing-free) access with fill: the
// tag, dirty and LRU state change exactly as in the timed access path,
// and the dirty-eviction writeback address is reported so a caller can
// propagate it down the hierarchy. Counters accumulate as usual; warm
// callers discard them.
func (c *Cache) WarmAccess(addr uint32, write bool) (hit bool, wbAddr uint32, wb bool) {
	return c.access(addr, write, true)
}

// warmLineBytes is the serialized size of one valid line.
const warmLineBytes = 4 + 1 // tag + dirty flag

// WarmStateLen returns the maximum encoded warm-state size for this
// cache (every set full).
func (c *Cache) WarmStateLen() int {
	return c.numSets() * (1 + c.cfg.Ways*warmLineBytes)
}

// AppendWarmState appends the canonical warm encoding: per set, a count
// byte followed by the valid ways oldest-to-youngest, each as tag (4 LE
// bytes) and a dirty flag byte.
func (c *Cache) AppendWarmState(buf []byte) []byte {
	var orderBuf [64]int // line indices sorted by used; Ways is small
	order := orderBuf[:]
	if c.cfg.Ways > len(order) {
		order = make([]int, c.cfg.Ways)
	}
	for base := 0; base < len(c.tags); base += c.cfg.Ways {
		n := 0
		for i := base; i < base+c.cfg.Ways; i++ {
			if c.tags[i] == 0 {
				continue
			}
			// Insertion sort by LRU timestamp, oldest first.
			j := n
			for j > 0 && c.used[order[j-1]] > c.used[i] {
				order[j] = order[j-1]
				j--
			}
			order[j] = i
			n++
		}
		buf = append(buf, byte(n))
		for _, i := range order[:n] {
			buf = binary.LittleEndian.AppendUint32(buf, c.tags[i]-1)
			d := byte(0)
			if c.dirty[i] {
				d = 1
			}
			buf = append(buf, d)
		}
	}
	return buf
}

// LoadWarmState replaces the cache's tag state with the encoded state
// and returns the number of bytes consumed. The geometry must match the
// cache the state was captured from; any structural mismatch, or a tag
// no address can produce, is an error and leaves no partial state
// behind the caller should trust. Counters are untouched.
func (c *Cache) LoadWarmState(buf []byte) (int, error) {
	maxTag := ^uint32(0) >> c.tagShift
	off := 0
	for si := 0; si < c.numSets(); si++ {
		if off >= len(buf) {
			return 0, fmt.Errorf("cache: warm state truncated at set %d", si)
		}
		n := int(buf[off])
		off++
		if n > c.cfg.Ways {
			return 0, fmt.Errorf("cache: warm state set %d holds %d ways (cache has %d)", si, n, c.cfg.Ways)
		}
		if off+n*warmLineBytes > len(buf) {
			return 0, fmt.Errorf("cache: warm state truncated in set %d", si)
		}
		base := si * c.cfg.Ways
		clear(c.tags[base : base+c.cfg.Ways])
		clear(c.used[base : base+c.cfg.Ways])
		clear(c.dirty[base : base+c.cfg.Ways])
		for k := 0; k < n; k++ {
			tag := binary.LittleEndian.Uint32(buf[off:])
			if tag > maxTag {
				return 0, fmt.Errorf("cache: warm state set %d has tag %#x (max %#x)", si, tag, maxTag)
			}
			if d := buf[off+4]; d > 1 {
				return 0, fmt.Errorf("cache: warm state set %d has dirty byte %d", si, d)
			}
			c.tags[base+k] = tag + 1
			c.used[base+k] = int64(k + 1)
			c.dirty[base+k] = buf[off+4] == 1
			off += warmLineBytes
		}
	}
	c.tick = int64(c.cfg.Ways)
	return off, nil
}

// CopyWarmFrom transplants src's tag state into c (both caches must
// share a geometry). Counters are untouched; the copy is exact, so a
// state loaded from canonical bytes installs without re-normalizing.
func (c *Cache) CopyWarmFrom(src *Cache) {
	copy(c.tags, src.tags)
	copy(c.used, src.used)
	copy(c.dirty, src.dirty)
	c.tick = src.tick
}
