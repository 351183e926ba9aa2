package core

import (
	"strings"
	"testing"

	"dmdp/internal/config"
	"dmdp/internal/isa"
	"dmdp/internal/trace"
)

// withIndex returns a copy of tr whose sequence-number index block b has
// been changed by perturb; the entries are shared.
func withIndex(tr *trace.Trace, b int, perturb func(*trace.SeqBlock)) *trace.Trace {
	cp := *tr
	cp.Seq = append([]trace.SeqBlock(nil), tr.Seq...)
	perturb(&cp.Seq[b])
	return &cp
}

// withEntry returns a copy of tr whose entry k has been changed by
// perturb; the index is shared.
func withEntry(tr *trace.Trace, k int, perturb func(*trace.Entry)) *trace.Trace {
	cp := *tr
	cp.Entries = append([]trace.Entry(nil), tr.Entries...)
	perturb(&cp.Entries[k])
	return &cp
}

// blockWith returns the first index block at or after the middle of tr
// that holds an entry of the mask's kind.
func blockWith(t *testing.T, tr *trace.Trace, mask func(*trace.SeqBlock) uint64) int {
	t.Helper()
	for b := len(tr.Seq) / 2; b < len(tr.Seq); b++ {
		if mask(&tr.Seq[b]) != 0 {
			return b
		}
	}
	t.Fatal("no block holds such an entry")
	return -1
}

// The sequence-number checks compare the core's own counters with the
// trace's index. Shifting one block's prefix count must make the first
// store (DMDP, SSN) or load (FnF, LSN) of that block fail with ErrDesync:
// a check that compared rename's counter with itself would never fire.
func TestDesyncChecksReadTheTraceIndex(t *testing.T) {
	tr := traceOf(t, ocPattern, 5000)
	sb := blockWith(t, tr, func(b *trace.SeqBlock) uint64 { return b.Stores })
	lb := blockWith(t, tr, func(b *trace.SeqBlock) uint64 { return b.Loads })
	cases := []struct {
		name  string
		model config.Model
		block int
		tr    *trace.Trace
		msg   string
	}{
		{"dmdp SSN", config.DMDP, sb, withIndex(tr, sb, func(b *trace.SeqBlock) { b.StoresBefore++ }), "SSN desync"},
		{"fnf LSN", config.FnF, lb, withIndex(tr, lb, func(b *trace.SeqBlock) { b.LoadsBefore++ }), "LSN desync"},
	}
	for _, c := range cases {
		_, se := runHardened(t, c.tr, config.Default(c.model))
		if se == nil || se.Kind != ErrDesync || !strings.Contains(se.Msg, c.msg) {
			t.Fatalf("%s: got %v, want an ErrDesync %q", c.name, se, c.msg)
		}
		if se.Idx < c.block*64 || se.Idx >= (c.block+1)*64 {
			t.Errorf("%s: failed at entry %d, outside the perturbed block %d", c.name, se.Idx, c.block)
		}
	}
	// The unperturbed trace runs clean under both models.
	for _, m := range []config.Model{config.DMDP, config.FnF} {
		if _, se := runHardened(t, tr, config.Default(m)); se != nil {
			t.Fatalf("%s: clean trace failed: %v", m, se)
		}
	}
}

// An entry the program cannot explain — its PC outside the text, or its
// opcode different from the program's at that PC — fails the run with
// ErrDesync at that entry instead of an index panic.
func TestEntryProgramMismatchIsDesync(t *testing.T) {
	tr := traceOf(t, ocPattern, 5000)
	k := len(tr.Entries) / 2
	for tr.Entries[k].Op.Class() != isa.ClassALU {
		k++
	}
	end := tr.Prog.TextBase + 4*uint32(len(tr.Prog.Text))
	cases := map[string]*trace.Trace{
		"pc past the text":   withEntry(tr, k, func(e *trace.Entry) { e.PC = end }),
		"pc before the text": withEntry(tr, k, func(e *trace.Entry) { e.PC = tr.Prog.TextBase - 4 }),
		"unaligned pc":       withEntry(tr, k, func(e *trace.Entry) { e.PC += 2 }),
		"other opcode": withEntry(tr, k, func(e *trace.Entry) {
			e.Op = isa.OpXOR
			if in, _ := tr.Prog.InstrAt(e.PC); in.Op == isa.OpXOR {
				e.Op = isa.OpOR
			}
		}),
	}
	for name, bad := range cases {
		for _, m := range allModels {
			_, se := runHardened(t, bad, config.Default(m))
			if se == nil || se.Kind != ErrDesync || se.Idx != k {
				t.Fatalf("%s, %s: got %v, want ErrDesync at entry %d", name, m, se, k)
			}
		}
	}
}

// A trace without its program or its index is refused by New, not met
// with a panic at the first rename.
func TestNewRefusesIncompleteTrace(t *testing.T) {
	tr := traceOf(t, ocPattern, 200)
	noProg, noIndex := *tr, *tr
	noProg.Prog, noIndex.Seq = nil, nil
	for name, bad := range map[string]*trace.Trace{"no program": &noProg, "no index": &noIndex} {
		if _, err := New(config.Default(config.DMDP), bad); err == nil {
			t.Errorf("%s: New accepted the trace", name)
		}
	}
}
