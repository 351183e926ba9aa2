package memdep

import (
	"encoding/binary"
	"fmt"
)

// Functional-warming support for the store-distance predictor and the
// T-SSBF. The SDP tables are LRU structures and use the same
// rank-normalized canonical encoding as the caches; the T-SSBF sets are
// FIFOs whose order is already explicit in the flat layout, so they
// serialize exactly.

const (
	sdpEntryBytes   = 4 + 8 + 1 // tag + dist + conf
	tssbfEntryBytes = 4 + 8 + 1 // tag + ssn + bab
)

// WarmStateLen returns the maximum encoded warm-state size.
func (s *SDP) WarmStateLen() int {
	return 2 * s.cfg.Sets * (1 + s.cfg.Ways*sdpEntryBytes)
}

// AppendWarmState appends both tables' canonical warm encodings
// (path-insensitive first): per set, a count byte then the valid ways
// oldest-to-youngest as tag, dist and confidence.
func (s *SDP) AppendWarmState(buf []byte) []byte {
	buf = s.pi.appendWarm(buf)
	return s.ps.appendWarm(buf)
}

// LoadWarmState replaces both tables' state with the encoded state and
// returns the bytes consumed. Counters are untouched.
func (s *SDP) LoadWarmState(buf []byte) (int, error) {
	n1, err := s.pi.loadWarm(buf, s.cfg.ConfMax)
	if err != nil {
		return 0, fmt.Errorf("sdp pi: %w", err)
	}
	n2, err := s.ps.loadWarm(buf[n1:], s.cfg.ConfMax)
	if err != nil {
		return 0, fmt.Errorf("sdp ps: %w", err)
	}
	return n1 + n2, nil
}

// CopyWarmFrom transplants src's table state into s (same geometry
// assumed). Counters are untouched.
func (s *SDP) CopyWarmFrom(src *SDP) {
	s.pi.copyFrom(src.pi)
	s.ps.copyFrom(src.ps)
}

func (t *sdpTable) appendWarm(buf []byte) []byte {
	var orderBuf [64]int
	order := orderBuf[:]
	if t.ways > len(order) {
		order = make([]int, t.ways)
	}
	for base := 0; base < len(t.tags); base += t.ways {
		n := 0
		for i := base; i < base+t.ways; i++ {
			if t.tags[i] == 0 {
				continue
			}
			j := n
			for j > 0 && t.vals[order[j-1]].used > t.vals[i].used {
				order[j] = order[j-1]
				j--
			}
			order[j] = i
			n++
		}
		buf = append(buf, byte(n))
		for _, i := range order[:n] {
			v := &t.vals[i]
			buf = binary.LittleEndian.AppendUint32(buf, t.tags[i]-1)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.dist))
			buf = append(buf, v.conf)
		}
	}
	return buf
}

// maxSDPTag is the largest tag a 32-bit PC produces (tags are pc >> 2).
const maxSDPTag = ^uint32(0) >> 2

func (t *sdpTable) loadWarm(buf []byte, confMax uint8) (int, error) {
	off := 0
	for si := 0; si < len(t.tags)/t.ways; si++ {
		if off >= len(buf) {
			return 0, fmt.Errorf("warm state truncated at set %d", si)
		}
		n := int(buf[off])
		off++
		if n > t.ways {
			return 0, fmt.Errorf("warm state set %d holds %d ways (table has %d)", si, n, t.ways)
		}
		if off+n*sdpEntryBytes > len(buf) {
			return 0, fmt.Errorf("warm state truncated in set %d", si)
		}
		base := si * t.ways
		clear(t.tags[base : base+t.ways])
		clear(t.vals[base : base+t.ways])
		for k := 0; k < n; k++ {
			tag := binary.LittleEndian.Uint32(buf[off:])
			conf := buf[off+12]
			// Reject rather than clamp: every accepted encoding must be
			// canonical (load-then-serialize is the identity) and
			// reachable.
			if tag > maxSDPTag {
				return 0, fmt.Errorf("warm state set %d has tag %#x (max %#x)", si, tag, maxSDPTag)
			}
			if conf > confMax {
				return 0, fmt.Errorf("warm state set %d has confidence %d (max %d)", si, conf, confMax)
			}
			t.tags[base+k] = tag + 1
			t.vals[base+k] = sdpVal{
				dist: int64(binary.LittleEndian.Uint64(buf[off+4:])),
				conf: conf,
				used: int64(k + 1),
			}
			off += sdpEntryBytes
		}
	}
	t.tick = int64(t.ways)
	return off, nil
}

func (t *sdpTable) copyFrom(src *sdpTable) {
	copy(t.tags, src.tags)
	copy(t.vals, src.vals)
	t.tick = src.tick
}

// WarmStateLen returns the maximum encoded warm-state size.
func (t *TSSBF) WarmStateLen() int {
	return t.cfg.Sets * (1 + t.cfg.Ways*tssbfEntryBytes)
}

// AppendWarmState appends the filter's exact state: per set, a count
// byte then the valid entries oldest-to-youngest (FIFO order) as tag,
// SSN and byte-access bits.
func (t *TSSBF) AppendWarmState(buf []byte) []byte {
	for si := 0; si < t.cfg.Sets; si++ {
		set := t.set(uint32(si))
		buf = append(buf, byte(len(set)))
		for i := range set {
			buf = binary.LittleEndian.AppendUint32(buf, set[i].tag)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(set[i].ssn))
			buf = append(buf, set[i].bab)
		}
	}
	return buf
}

// LoadWarmState replaces the filter's state with the encoded state and
// returns the bytes consumed. Counters are untouched.
func (t *TSSBF) LoadWarmState(buf []byte) (int, error) {
	off := 0
	for si := 0; si < t.cfg.Sets; si++ {
		if off >= len(buf) {
			return 0, fmt.Errorf("tssbf: warm state truncated at set %d", si)
		}
		n := int(buf[off])
		off++
		if n > t.cfg.Ways {
			return 0, fmt.Errorf("tssbf: warm state set %d holds %d ways (filter has %d)", si, n, t.cfg.Ways)
		}
		if off+n*tssbfEntryBytes > len(buf) {
			return 0, fmt.Errorf("tssbf: warm state truncated in set %d", si)
		}
		base := si * t.cfg.Ways
		for k := 0; k < t.cfg.Ways; k++ {
			t.entries[base+k] = tssbfEntry{}
		}
		for k := 0; k < n; k++ {
			t.entries[base+k] = tssbfEntry{
				tag:   binary.LittleEndian.Uint32(buf[off:]),
				ssn:   int64(binary.LittleEndian.Uint64(buf[off+4:])),
				bab:   buf[off+12],
				valid: true,
			}
			off += tssbfEntryBytes
		}
		t.lens[si] = n
	}
	return off, nil
}

// CopyWarmRebased transplants src's state into t with every SSN shifted
// down by base. Functional warming counts stores with absolute SSNs
// (1..N over the profiled prefix); an interval's detailed core restarts
// its SSN registers at zero, so the pre-interval stores must appear as
// SSNs <= 0 — older than anything the interval renames — while their
// tag presence still answers "which store last wrote this word" with
// the true distance: (StoresBefore + base) - ssn == StoresBefore -
// (ssn - base). Counters are untouched.
func (t *TSSBF) CopyWarmRebased(src *TSSBF, base int64) {
	copy(t.entries, src.entries)
	copy(t.lens, src.lens)
	for i := range t.entries {
		if t.entries[i].valid {
			t.entries[i].ssn -= base
		}
	}
}
