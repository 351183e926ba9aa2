package mem_test

import (
	"runtime"
	"testing"

	"dmdp/internal/emu"
	"dmdp/internal/mem"
	"dmdp/internal/workload"
)

var sink *mem.Image

// TestCloneCopiesNoPage bounds what Clone allocates for lbm's initial
// image (its 6 MiB data segment): a page table entry per page, never the
// page itself. Every detailed run, interval extraction and trace build
// clones such an image.
func TestCloneCopiesNoPage(t *testing.T) {
	s, ok := workload.Get("lbm")
	if !ok {
		t.Fatal("lbm proxy missing")
	}
	p, err := s.Program()
	if err != nil {
		t.Fatal(err)
	}
	img := emu.New(p).Mem
	pages := img.Pages()
	if pages < 1000 {
		t.Fatalf("lbm's initial image has %d pages; the bound below assumes its full data segment", pages)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sink = img.Clone()
	}
	runtime.ReadMemStats(&after)
	perClone := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(pages) * 64; perClone > limit {
		t.Fatalf("Clone of %d pages allocated %d bytes (limit %d): it copies pages", pages, perClone, limit)
	}
	t.Logf("Clone of %d pages: %d bytes", pages, perClone)
}
