package trace_test

import (
	"math"
	"testing"
	"unsafe"

	"dmdp/internal/artifact"
	"dmdp/internal/asm"
	"dmdp/internal/emu"
	"dmdp/internal/progen"
	"dmdp/internal/sampling"
	"dmdp/internal/trace"
	"dmdp/internal/workload"
)

// TestEntrySize pins the record size: an entry holds only per-instance
// facts, and the index costs well under a byte per entry.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(trace.Entry{}); got > 24 {
		t.Errorf("trace.Entry is %d bytes, want at most 24", got)
	}
	if got := unsafe.Sizeof(trace.SeqBlock{}); got > 64 {
		t.Errorf("trace.SeqBlock is %d bytes for 64 entries, want at most 64", got)
	}
}

// checkSeqIndex compares every sequence-number method of tr with a naive
// running count over the entries' opcodes.
func checkSeqIndex(t *testing.T, name string, tr *trace.Trace) {
	t.Helper()
	if !tr.IndexConsistent() {
		t.Fatalf("%s: index inconsistent", name)
	}
	var stores, loads int64
	for i := range tr.Entries {
		e := &tr.Entries[i]
		if got := tr.StoresBefore(i); got != stores {
			t.Fatalf("%s: StoresBefore(%d) = %d, want %d", name, i, got, stores)
		}
		if got := tr.LoadsBefore(i); got != loads {
			t.Fatalf("%s: LoadsBefore(%d) = %d, want %d", name, i, got, loads)
		}
		if e.IsLoad() && e.DepStore > 0 {
			if got, want := tr.DepDist(i), stores-int64(e.DepStore); got != want {
				t.Fatalf("%s: DepDist(%d) = %d, want %d", name, i, got, want)
			}
		}
		var storeSeq, loadSeq int64
		switch {
		case e.IsStore():
			stores++
			storeSeq = stores
		case e.IsLoad():
			loads++
			loadSeq = loads
		}
		if got := tr.StoreSeq(i); got != storeSeq {
			t.Fatalf("%s: StoreSeq(%d) = %d, want %d", name, i, got, storeSeq)
		}
		if got := tr.LoadSeq(i); got != loadSeq {
			t.Fatalf("%s: LoadSeq(%d) = %d, want %d", name, i, got, loadSeq)
		}
		if storeSeq != 0 {
			if got := tr.EntryBySeq(storeSeq); got != i {
				t.Fatalf("%s: EntryBySeq(%d) = %d, want %d", name, storeSeq, got, i)
			}
		}
	}
	if stores != tr.Stores || loads != tr.Loads {
		t.Fatalf("%s: %d stores / %d loads, trace says %d / %d", name, stores, loads, tr.Stores, tr.Loads)
	}
	for _, seq := range []int64{math.MinInt64, -1, 0, stores + 1, math.MaxInt64} {
		if got := tr.EntryBySeq(seq); got != -1 {
			t.Fatalf("%s: EntryBySeq(%d) = %d, want -1", name, seq, got)
		}
	}
}

// TestSeqIndexMatchesRunningCount checks the index on every kind of
// trace the simulator runs: built proxies, generated programs, sampled
// sub-traces (which start mid-block of their parent) and a trace read
// back from the trace store.
func TestSeqIndexMatchesRunningCount(t *testing.T) {
	const budget = 20_000
	var gcc *trace.Trace
	var gccSpec *workload.Spec
	for _, name := range workload.Names() {
		spec, _ := workload.Get(name)
		tr, err := spec.BuildTrace(budget)
		if err != nil {
			t.Fatal(err)
		}
		checkSeqIndex(t, name, tr)
		if name == "gcc" {
			gcc, gccSpec = tr, spec
		}
	}

	for _, p := range progen.Presets()[:3] {
		for seed := uint64(1); seed <= 3; seed++ {
			prog, err := asm.Assemble(progen.Generate(seed, p.Knobs))
			if err != nil {
				t.Fatal(err)
			}
			tr, err := emu.Run(prog, budget)
			if err != nil {
				t.Fatal(err)
			}
			checkSeqIndex(t, p.Name, tr)
		}
	}

	for _, iv := range []sampling.Interval{{Start: 0, End: 64}, {Start: 13, End: 5_000}, {Start: 7_777, End: budget}} {
		sub, err := sampling.Slice(gcc, iv)
		if err != nil {
			t.Fatal(err)
		}
		checkSeqIndex(t, "gcc slice", sub)
	}

	store, err := artifact.Open(t.TempDir(), artifact.RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := artifact.TraceKey(gccSpec.SourceHash(), budget)
	store.StoreTrace(key, gcc)
	loaded, ok := store.LoadTrace(key)
	if !ok {
		t.Fatal("stored trace missed")
	}
	checkSeqIndex(t, "gcc from the store", loaded)
}

// TestIndexConsistentRejects covers each way an index read from outside
// the process can contradict itself.
func TestIndexConsistentRejects(t *testing.T) {
	s, _ := workload.Get("hmmer")
	tr, err := s.BuildTrace(1_000) // 16 blocks, the last one partial
	if err != nil {
		t.Fatal(err)
	}
	for name, perturb := range map[string]func(*trace.Trace){
		"prefix count":      func(c *trace.Trace) { c.Seq[3].StoresBefore++ },
		"load prefix count": func(c *trace.Trace) { c.Seq[3].LoadsBefore-- },
		"store and load":    func(c *trace.Trace) { c.Seq[5].Loads |= c.Seq[5].Stores & -c.Seq[5].Stores },
		"bit past the end":  func(c *trace.Trace) { c.Seq[len(c.Seq)-1].Loads |= 1 << 63 },
		"store total":       func(c *trace.Trace) { c.Stores++ },
		"missing block":     func(c *trace.Trace) { c.Seq = c.Seq[:len(c.Seq)-1] },
	} {
		cp := *tr
		cp.Seq = append([]trace.SeqBlock(nil), tr.Seq...)
		perturb(&cp)
		if cp.IndexConsistent() {
			t.Errorf("%s: perturbed index reads consistent", name)
		}
	}
}
