// Package mem provides the sparse little-endian memory image shared by the
// functional emulator and the timing model (which maintains a second image
// reflecting only *committed* stores, so speculation outcomes can be
// decided exactly).
//
// Images share pages copy-on-write. Clone copies the page table, not the
// pages, and the first write through any holder of a shared page, source
// or clone, copies that page first: no page reachable from more than one
// image is ever written in place.
package mem

import (
	"encoding/binary"
	"maps"
	"slices"
	"sort"
	"sync/atomic"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// PageSize is the granularity of the sparse image, exported for
// serializers that persist images page by page.
const PageSize = pageSize

// page is one page of memory, possibly held by several images.
type page struct {
	// sharers counts the images holding the page besides one. It is an
	// upper bound: Clone and SharePage add one and a write that copies
	// the page subtracts one, but an image that drops the page otherwise
	// (it is dropped itself, or SetPage or SharePage replaces the page)
	// never subtracts.
	// Over-counting costs at most one needless copy; it never lets a
	// shared page be written in place. The page is written in place only
	// while sharers is zero.
	sharers atomic.Int64
	data    [pageSize]byte
}

// Image is a sparse 32-bit byte-addressable memory. The zero value is an
// empty image; unwritten bytes read as zero.
type Image struct {
	pages map[uint32]*page

	// One-slot translation cache: accesses cluster heavily within a page.
	// The cached page may be shared, so writes through it check sharers.
	lastPN   uint32
	lastPage *page
}

// NewImage returns an empty memory image.
func NewImage() *Image {
	return &Image{pages: make(map[uint32]*page)}
}

// lookup returns the page holding addr, or nil when it was never written.
func (m *Image) lookup(addr uint32) *page {
	pn := addr >> pageShift
	if p := m.lastPage; p != nil && m.lastPN == pn {
		return p
	}
	p := m.pages[pn]
	if p != nil {
		m.lastPN, m.lastPage = pn, p
	}
	return p
}

// private returns the cached page when it holds addr and no other image
// shares it, else nil. It is the write fast path: one compare and one
// atomic load, small enough to inline into Write.
func (m *Image) private(addr uint32) *page {
	if p := m.lastPage; p != nil && m.lastPN == addr>>pageShift && p.sharers.Load() == 0 {
		return p
	}
	return nil
}

// own makes the page holding addr private to m, allocating it when
// missing and copying it when shared. The copy is installed before the
// old page's count drops: a holder that saw the count fall may write the
// old page in place.
func (m *Image) own(addr uint32) *page {
	if m.pages == nil {
		m.pages = make(map[uint32]*page)
	}
	pn := addr >> pageShift
	p := m.pages[pn]
	switch {
	case p == nil:
		p = new(page)
		m.pages[pn] = p
	case p.sharers.Load() != 0:
		cp := &page{data: p.data}
		m.pages[pn] = cp
		p.sharers.Add(-1)
		p = cp
	}
	m.lastPN, m.lastPage = pn, p
	return p
}

// width is the byte count of a sized access: 1, 2, or 4 for any other
// size.
func width(size uint32) uint32 {
	if size == 1 || size == 2 {
		return size
	}
	return 4
}

// inPage reports whether the n-byte access at addr stays inside one page.
func inPage(addr, n uint32) bool { return addr&pageMask <= pageSize-n }

// Read reads size (1, 2 or 4) bytes at addr as a little-endian,
// zero-extended value. addr may be unaligned (the emulator enforces
// alignment separately); an access inside one page resolves it once.
func (m *Image) Read(addr, size uint32) uint32 {
	n := width(size)
	if !inPage(addr, n) {
		var v uint32
		for i := uint32(0); i < n; i++ {
			v |= m.Read(addr+i, 1) << (8 * i)
		}
		return v
	}
	p := m.lookup(addr)
	if p == nil {
		return 0
	}
	b := p.data[addr&pageMask:]
	switch n {
	case 1:
		return uint32(b[0])
	case 2:
		return uint32(binary.LittleEndian.Uint16(b))
	}
	return binary.LittleEndian.Uint32(b)
}

// Write writes the low size (1, 2 or 4) bytes of v at addr,
// little-endian.
func (m *Image) Write(addr, size, v uint32) {
	n := width(size)
	if !inPage(addr, n) {
		for i := uint32(0); i < n; i++ {
			m.Write(addr+i, 1, v>>(8*i))
		}
		return
	}
	p := m.private(addr)
	if p == nil {
		p = m.own(addr)
	}
	b := p.data[addr&pageMask:]
	switch n {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	default:
		binary.LittleEndian.PutUint32(b, v)
	}
}

// Byte returns the byte at addr.
func (m *Image) Byte(addr uint32) byte { return byte(m.Read(addr, 1)) }

// SetByte stores b at addr.
func (m *Image) SetByte(addr uint32, b byte) { m.Write(addr, 1, uint32(b)) }

// Half returns the little-endian 16-bit halfword at addr.
func (m *Image) Half(addr uint32) uint16 { return uint16(m.Read(addr, 2)) }

// SetHalf stores the little-endian 16-bit halfword v at addr.
func (m *Image) SetHalf(addr uint32, v uint16) { m.Write(addr, 2, uint32(v)) }

// Word returns the little-endian 32-bit word at addr.
func (m *Image) Word(addr uint32) uint32 { return m.Read(addr, 4) }

// SetWord stores the little-endian 32-bit word v at addr.
func (m *Image) SetWord(addr uint32, v uint32) { m.Write(addr, 4, v) }

// SetBytes copies data into memory starting at addr, one page-sized run
// at a time.
func (m *Image) SetBytes(addr uint32, data []byte) {
	for len(data) > 0 {
		n := copy(m.own(addr).data[addr&pageMask:], data)
		addr += uint32(n)
		data = data[n:]
	}
}

// Clone returns an image with the same contents that shares every page
// with m copy-on-write, so it costs one table entry per page rather than
// a page copy. Clone only reads m: any number of goroutines may clone one
// image at once, provided nothing writes that image meanwhile.
func (m *Image) Clone() *Image {
	c := &Image{pages: maps.Clone(m.pages)}
	for _, p := range c.pages {
		p.sharers.Add(1)
	}
	return c
}

// DirtySince lists, in ascending order, the base addresses of the pages
// m holds that base does not hold as the very same page. For an image
// cloned from base, those are the pages written since the clone: a write
// copies a shared page before changing it, and allocates a page base
// never had. DirtySince only reads m and base.
func (m *Image) DirtySince(base *Image) []uint32 {
	var dirty []uint32
	for pn, p := range m.pages {
		if base.pages[pn] != p {
			dirty = append(dirty, pn<<pageShift)
		}
	}
	slices.Sort(dirty)
	return dirty
}

// Pages returns the number of allocated pages (for footprint reporting).
func (m *Image) Pages() int { return len(m.pages) }

// ForEachPage calls fn for every allocated page in ascending page-number
// order with the page's base address and contents. The deterministic
// order makes serialized images canonical regardless of the map's
// iteration order. The page may be shared with other images, so fn must
// only read data and must not keep it past the call.
func (m *Image) ForEachPage(fn func(base uint32, data *[PageSize]byte)) {
	pns := make([]uint32, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	for _, pn := range pns {
		fn(pn<<pageShift, &m.pages[pn].data)
	}
}

// Page returns the allocated page whose base address is base
// (page-aligned), or ok=false when that page was never written. The page
// may be shared with other images: the caller only reads it, and its
// content stays as returned for as long as nothing writes m, so a clone
// that nobody writes keeps it for good. Unlike the read accessors it does
// not touch the one-slot translation cache, so it is safe to call on an
// image shared by concurrent readers.
func (m *Image) Page(base uint32) (*[PageSize]byte, bool) {
	p := m.pages[base>>pageShift]
	if p == nil {
		return nil, false
	}
	return &p.data, true
}

// SharePage installs src's page at the page-aligned base address in m,
// replacing any page m has there, and reports whether src holds such a
// page. The page is shared copy-on-write, as Clone shares every page:
// nothing is copied until one of its holders writes it. SharePage only
// reads src, so like Clone it may run on an image that other goroutines
// read or share at once, provided nothing writes that image meanwhile.
func (m *Image) SharePage(base uint32, src *Image) bool {
	pn := base >> pageShift
	p := src.pages[pn]
	if p == nil {
		return false
	}
	p.sharers.Add(1)
	if m.pages == nil {
		m.pages = make(map[uint32]*page)
	}
	m.pages[pn] = p
	m.lastPN, m.lastPage = pn, p
	return true
}

// SetPage installs a private copy of data as the page at the page-aligned
// base address, replacing any existing page (the deserialization
// counterpart of ForEachPage).
func (m *Image) SetPage(base uint32, data *[PageSize]byte) {
	if m.pages == nil {
		m.pages = make(map[uint32]*page)
	}
	pn := base >> pageShift
	p := &page{data: *data}
	m.pages[pn] = p
	m.lastPN, m.lastPage = pn, p
}
