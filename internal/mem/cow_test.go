package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// refImage is the reference model for the copy-on-write tests: pages in
// a plain map, every page deep-copied on clone. Its sized accesses take
// sizes 1, 2 and 4 only.
type refImage map[uint32]*[PageSize]byte

func (r refImage) clone() refImage {
	c := make(refImage, len(r))
	for pn, pg := range r {
		cp := *pg
		c[pn] = &cp
	}
	return c
}

func (r refImage) byte(a uint32) byte {
	if pg := r[a>>pageShift]; pg != nil {
		return pg[a&pageMask]
	}
	return 0
}

func (r refImage) setByte(a uint32, b byte) {
	pg := r[a>>pageShift]
	if pg == nil {
		pg = new([PageSize]byte)
		r[a>>pageShift] = pg
	}
	pg[a&pageMask] = b
}

func (r refImage) read(addr, size uint32) uint32 {
	var v uint32
	for i := uint32(0); i < size; i++ {
		v |= uint32(r.byte(addr+i)) << (8 * i)
	}
	return v
}

func (r refImage) write(addr, size, v uint32) {
	for i := uint32(0); i < size; i++ {
		r.setByte(addr+i, byte(v>>(8*i)))
	}
}

// matches reports where img and ref disagree: both must hold the same
// pages with the same bytes.
func (r refImage) matches(img *Image) error {
	if img.Pages() != len(r) {
		return fmt.Errorf("%d pages, model %d", img.Pages(), len(r))
	}
	var err error
	img.ForEachPage(func(base uint32, data *[PageSize]byte) {
		if want := r[base>>pageShift]; err == nil && (want == nil || *want != *data) {
			err = fmt.Errorf("page %#x differs from the model", base)
		}
	})
	return err
}

// cowAddr picks an address that keeps a handful of images colliding on a
// few pages: mostly inside a three-page window, sometimes straddling one of
// its page boundaries, sometimes at the top of the address space so that
// multi-byte accesses wrap to page zero.
func cowAddr(rng *rand.Rand) uint32 {
	const window = 0x40000
	switch rng.Intn(8) {
	case 0:
		return window + uint32(rng.Intn(4))*PageSize - uint32(rng.Intn(4))
	case 1:
		return ^uint32(0) - uint32(rng.Intn(4))
	default:
		return window + uint32(rng.Intn(3*PageSize))
	}
}

// TestCopyOnWriteProperty drives a family of images through random clones
// (clones of clones included, and clones dropped without notice), sized
// writes, bulk writes, page installs, shared pages and reads, writing
// sources after they were cloned, and checks every read against a model
// that copies whole images.
func TestCopyOnWriteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		imgs := []*Image{NewImage()}
		refs := []refImage{{}}
		for step := 0; step < 400; step++ {
			i := rng.Intn(len(imgs))
			m, r := imgs[i], refs[i]
			switch op := rng.Intn(16); {
			case op < 3:
				c, rc := m.Clone(), r.clone()
				if len(imgs) < 6 {
					imgs, refs = append(imgs, c), append(refs, rc)
				} else {
					// Replacing an image drops it without decrementing
					// its pages, so their counts over-estimate.
					j := rng.Intn(len(imgs))
					imgs[j], refs[j] = c, rc
				}
			case op < 8:
				addr, size, v := cowAddr(rng), uint32(1)<<rng.Intn(3), rng.Uint32()
				m.Write(addr, size, v)
				r.write(addr, size, v)
			case op < 9:
				addr := cowAddr(rng)
				data := make([]byte, rng.Intn(2*PageSize+PageSize/2))
				rng.Read(data)
				m.SetBytes(addr, data)
				for k, b := range data {
					r.setByte(addr+uint32(k), b)
				}
			case op < 10 && rng.Intn(2) == 0:
				// Share another image's page; the model copies it.
				base := cowAddr(rng) &^ pageMask
				j := rng.Intn(len(imgs))
				if ok := m.SharePage(base, imgs[j]); ok != (refs[j][base>>pageShift] != nil) {
					t.Logf("seed %d step %d: SharePage from image %d reported %t", seed, step, j, ok)
					return false
				} else if ok {
					cp := *refs[j][base>>pageShift]
					r[base>>pageShift] = &cp
				}
			case op < 10:
				base := cowAddr(rng) &^ pageMask
				var data [PageSize]byte
				rng.Read(data[:])
				if rng.Intn(2) == 0 {
					if pg, ok := imgs[rng.Intn(len(imgs))].Page(base); ok {
						data = *pg
					}
				}
				m.SetPage(base, &data)
				r[base>>pageShift] = &data
			default:
				addr, size := cowAddr(rng), uint32(1)<<rng.Intn(3)
				if got, want := m.Read(addr, size), r.read(addr, size); got != want {
					t.Logf("seed %d step %d: image %d Read(%#x, %d) = %#x, model %#x", seed, step, i, addr, size, got, want)
					return false
				}
			}
		}
		for i := range imgs {
			if err := refs[i].matches(imgs[i]); err != nil {
				t.Logf("seed %d: image %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fillPattern returns a page whose every word encodes (tag, offset).
func fillPattern(tag uint32) *[PageSize]byte {
	var pg [PageSize]byte
	for off := uint32(0); off < PageSize; off += 4 {
		v := tag<<16 | off
		pg[off], pg[off+1], pg[off+2], pg[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	return &pg
}

// TestConcurrentCloneAndWrite has goroutines clone one shared image at
// once and write their clones while the shared image must stay unchanged.
// Each goroutine then clones its own clone, whose pages it had made
// private, and writes both images at once from two goroutines: one of the
// two copies each page, and the other may then write it in place, so a
// copy that is not complete before the count drops is a data race.
// CI runs it under -race -count=10.
func TestConcurrentCloneAndWrite(t *testing.T) {
	const pages, workers, rounds = 8, 8, 20
	shared := NewImage()
	for pg := uint32(0); pg < pages; pg++ {
		shared.SetPage(pg*PageSize, fillPattern(pg))
	}
	// write stamps tag on a spread of words in every page of img and
	// returns what each page must then hold, starting from base.
	write := func(img *Image, base map[uint32]*[PageSize]byte, tag uint32) map[uint32]*[PageSize]byte {
		want := map[uint32]*[PageSize]byte{}
		for pg := uint32(0); pg < pages; pg++ {
			exp := *base[pg]
			for off := tag * 4 % 64; off < PageSize; off += 64 {
				img.SetWord(pg*PageSize+off, tag)
				exp[off], exp[off+1], exp[off+2], exp[off+3] = byte(tag), byte(tag>>8), byte(tag>>16), byte(tag>>24)
			}
			want[pg] = &exp
		}
		return want
	}
	check := func(img *Image, want map[uint32]*[PageSize]byte) error {
		for pg := uint32(0); pg < pages; pg++ {
			got, ok := img.Page(pg * PageSize)
			if !ok || !bytes.Equal(got[:], want[pg][:]) {
				return fmt.Errorf("page %d differs", pg)
			}
		}
		return nil
	}
	orig := map[uint32]*[PageSize]byte{}
	for pg := uint32(0); pg < pages; pg++ {
		orig[pg] = fillPattern(pg)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := uint32(0); w < workers; w++ {
		wg.Add(1)
		go func(w uint32) {
			defer wg.Done()
			for round := uint32(0); round < rounds; round++ {
				x := shared.Clone()
				xWant := write(x, orig, 2*w+1)
				y := x.Clone()
				var yWant map[uint32]*[PageSize]byte
				done := make(chan struct{})
				go func(base map[uint32]*[PageSize]byte) {
					yWant = write(y, base, 2*w+2)
					close(done)
				}(xWant)
				xWant = write(x, xWant, 2*w+17)
				<-done
				for _, c := range []struct {
					name string
					img  *Image
					want map[uint32]*[PageSize]byte
				}{{"clone", x, xWant}, {"clone of clone", y, yWant}, {"shared", shared, orig}} {
					if err := check(c.img, c.want); err != nil {
						errs <- fmt.Errorf("worker %d round %d: %s: %v", w, round, c.name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// An unaligned bulk write across three pages, the first of them shared
// with the source of the clone written, must equal the same bytes written
// one at a time and leave the source unchanged.
func TestSetBytesMatchesPerByte(t *testing.T) {
	data := make([]byte, PageSize+100)
	rand.New(rand.NewSource(1)).Read(data)
	addr := uint32(3*PageSize - 37) // 37 bytes, a full page, then 63 bytes

	src := NewImage()
	src.SetWord(3*PageSize-64, 0x01020304)
	src.SetWord(5*PageSize+200, 0x05060708)
	bulk, perByte := src.Clone(), src.Clone()
	bulk.SetBytes(addr, data)
	for i, b := range data {
		perByte.SetByte(addr+uint32(i), b)
	}
	if bulk.Pages() != 4 || perByte.Pages() != 4 { // pages 2-4 written, 5 inherited
		t.Fatalf("pages: bulk %d, per byte %d, want 4", bulk.Pages(), perByte.Pages())
	}
	perByte.ForEachPage(func(base uint32, want *[PageSize]byte) {
		if got, _ := bulk.Page(base); !bytes.Equal(got[:], want[:]) {
			t.Errorf("page %#x differs between SetBytes and per-byte SetByte", base)
		}
	})
	if src.Word(3*PageSize-64) != 0x01020304 || src.Word(5*PageSize+200) != 0x05060708 ||
		src.Byte(addr) != 0 || src.Byte(4*PageSize) != 0 {
		t.Fatal("SetBytes on a clone wrote through to its source")
	}
}

// DirtySince lists exactly the pages written since the clone, in
// ascending order: a rewrite with an unchanged value counts, a read or a
// page merely inherited does not, and a clone of the written image (a
// snapshot) lists the same pages however its source is written after.
func TestDirtySince(t *testing.T) {
	base := NewImage()
	for _, pg := range []uint32{1, 2, 5} {
		base.SetWord(pg*PageSize, pg)
	}
	m := base.Clone()
	if d := m.DirtySince(base); len(d) != 0 {
		t.Fatalf("fresh clone lists %x", d)
	}
	m.SetWord(7*PageSize+8, 9)   // a page base never had
	m.SetWord(2*PageSize+4, 3)   // a shared page
	m.SetWord(1*PageSize, 1)     // the value it already holds
	_ = m.Word(5 * PageSize)     // a read
	m.SetWord(7*PageSize+12, 10) // a private page, again
	want := []uint32{1 * PageSize, 2 * PageSize, 7 * PageSize}
	snap := m.Clone()
	m.SetWord(2*PageSize+4, 4) // copies the page shared with snap
	m.SetWord(6*PageSize, 6)
	for _, c := range []struct {
		name string
		got  []uint32
		want []uint32
	}{
		{"snapshot", snap.DirtySince(base), want},
		{"image", m.DirtySince(base), append(slices.Clone(want[:2]), 6*PageSize, 7*PageSize)},
		{"base", base.DirtySince(base), nil},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s: DirtySince lists %x, want %x", c.name, c.got, c.want)
		}
	}
}

// The zero Image is documented as an empty image: it reads zero, accepts
// writes of every kind and clones.
func TestZeroValueImage(t *testing.T) {
	var m Image
	if m.Word(0x40) != 0 || m.Pages() != 0 {
		t.Fatal("zero image must read as empty")
	}
	c := m.Clone()
	m.SetWord(0x40, 0xcafef00d)
	var b, p Image
	b.SetBytes(0x80, []byte{1, 2, 3})
	p.SetPage(0, fillPattern(1))
	c.Write(0x44, 2, 0xbeef)
	if m.Word(0x40) != 0xcafef00d || b.Byte(0x82) != 3 || p.Word(4) != 1<<16|4 || c.Half(0x44) != 0xbeef {
		t.Fatal("writes to a zero image did not read back")
	}
	if c.Word(0x40) != 0 || m.Half(0x44) != 0 {
		t.Fatal("clone of a zero image is not independent")
	}
}

// The store and load benchmarks time the translation-cached fast paths:
// a word store to a private page and a word load, both inside one page.
func BenchmarkStoreWord(b *testing.B) {
	m := NewImage()
	for i := 0; i < b.N; i++ {
		m.Write(uint32(i*4)&0xfffc, 4, uint32(i))
	}
}

var loadSink uint32

func BenchmarkLoadWord(b *testing.B) {
	m := NewImage()
	m.SetBytes(0, make([]byte, 0x10000))
	b.ResetTimer()
	var sum uint32
	for i := 0; i < b.N; i++ {
		sum += m.Read(uint32(i*4)&0xfffc, 4)
	}
	loadSink = sum
}
