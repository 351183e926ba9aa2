package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dmdp/internal/asm"
	"dmdp/internal/config"
	"dmdp/internal/emu"
	"dmdp/internal/trace"
)

// ---------- model-based robQ check ----------

// TestRobQModelBased drives the ring buffer with random operations and
// compares it against a reference slice implementation.
func TestRobQModelBased(t *testing.T) {
	f := func(ops []uint8, capSeed uint8) bool {
		capacity := 1 + int(capSeed%16)
		q := newRobQ(capacity)
		var ref []int // trace indices, oldest first
		next := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // push
				if len(ref) < capacity {
					q.next().idx = next
					q.push()
					ref = append(ref, next)
					next++
				}
			case 2: // pop
				if len(ref) > 0 {
					if q.front().idx != ref[0] {
						return false
					}
					q.popFront()
					ref = ref[1:]
				}
			case 3: // random access
				if len(ref) > 0 {
					i := int(op) % len(ref)
					if q.at(i).idx != ref[i] {
						return false
					}
				}
			}
			if q.len() != len(ref) || q.full() != (len(ref) == capacity) ||
				q.empty() != (len(ref) == 0) {
				return false
			}
			if len(ref) > 0 && q.front().idx != ref[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// ---------- heap ordering properties ----------

func TestReadyHeapPopsInSeqOrder(t *testing.T) {
	f := func(seqs []int64) bool {
		var h readyHeap
		for _, s := range seqs {
			h.push(&uop{seq: s})
		}
		last := int64(math.MinInt64)
		for h.Len() > 0 {
			u := h.pop()
			if u.seq < last {
				return false
			}
			last = u.seq
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// eventQueue is the completion-event queue contract the core relies on.
type eventQueue interface {
	schedule(at int64, u *uop)
	popDue(now int64) *uop
	nextAt() int64
	reset()
}

// heapQueue is the reference event queue: everything in one binary heap
// ordered by (cycle, seq).
type heapQueue struct{ h eventHeap }

func (q *heapQueue) schedule(at int64, u *uop) { q.h.push(event{at: at, seq: u.seq, u: u}) }

func (q *heapQueue) popDue(now int64) *uop {
	if len(q.h) > 0 && q.h[0].at <= now {
		return q.h.popMin().u
	}
	return nil
}

func (q *heapQueue) nextAt() int64 {
	if len(q.h) == 0 {
		return -1
	}
	return q.h[0].at
}

func (q *heapQueue) reset() { q.h = q.h[:0] }

// TestEventHeapPopDue holds the fixed cases for both event queues: the
// timing wheel and the reference heap must pop them identically.
func TestEventHeapPopDue(t *testing.T) {
	for name, q := range map[string]eventQueue{"wheel": &eventWheel{}, "heap": &heapQueue{}} {
		u1, u2, u3, u4 := &uop{seq: 1}, &uop{seq: 2}, &uop{seq: 3}, &uop{seq: 4}
		q.schedule(10, u3)
		q.schedule(5, u1)
		q.schedule(5, u2)
		q.schedule(20, u4)

		if got := q.popDue(4); got != nil {
			t.Fatalf("%s: nothing due at 4, got %v", name, got.seq)
		}
		if got := q.popDue(5); got != u1 {
			t.Fatalf("%s: u1 due first (same-cycle ties break by seq)", name)
		}
		if got := q.popDue(5); got != u2 {
			t.Fatalf("%s: u2 due second at 5", name)
		}
		if got := q.popDue(10); got != u3 {
			t.Fatalf("%s: u3 due at 10", name)
		}
		if got := q.popDue(10); got != nil {
			t.Fatalf("%s: u4 not due yet", name)
		}
		if q.nextAt() != 20 {
			t.Fatalf("%s: nextAt %d", name, q.nextAt())
		}
		// Late (already past) and far (past the wheel horizon) events
		// order with the rest by (cycle, seq).
		u5, u6, u7 := &uop{seq: 5}, &uop{seq: 6}, &uop{seq: 7}
		q.schedule(20+3*wheelSize, u5)
		q.schedule(9, u6)
		q.schedule(20, u7)
		for i, want := range []*uop{u6, u4, u7} {
			if got := q.popDue(20); got != want {
				t.Fatalf("%s: pop %d at 20: got %v", name, i, got)
			}
		}
		if q.nextAt() != 20+3*wheelSize {
			t.Fatalf("%s: nextAt %d, want the far event", name, q.nextAt())
		}
		q.reset()
		if q.nextAt() != -1 || q.popDue(1<<40) != nil {
			t.Fatalf("%s: reset left events behind", name)
		}
	}
}

// TestEventWheelMatchesHeap drives the timing wheel and the reference
// heap with the same random schedule/popDue/nextAt/reset sequences and
// requires the same pop order and the same nextAt answers. Sequences mix
// events due at or before the current cycle, within the horizon, past
// it, out-of-order seqs, flush resets, and clock jumps like the core's
// idle-cycle fast-forward.
func TestEventWheelMatchesHeap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, h := &eventWheel{}, &heapQueue{}
		var seq int64
		var fresh []*uop // created, not yet scheduled (random issue order)
		now := int64(r.Intn(3))
		for step := 0; step < 3000; step++ {
			switch op := r.Intn(20); {
			case op < 8: // schedule
				for len(fresh) < 4 {
					seq++
					fresh = append(fresh, &uop{seq: seq})
				}
				k := r.Intn(len(fresh))
				u := fresh[k]
				fresh = append(fresh[:k], fresh[k+1:]...)
				var at int64
				switch r.Intn(10) {
				case 0:
					at = now - int64(r.Intn(5)) // at or before now
				case 1:
					at = now + wheelSize - 2 + int64(r.Intn(4)) // horizon edge
				case 2:
					at = now + int64(r.Intn(5*wheelSize)) // often past it
				default:
					at = now + 1 + int64(r.Intn(30))
				}
				w.schedule(at, u)
				h.schedule(at, u)
			case op < 15: // one cycle: drain everything due
				now++
				fallthrough
			case op < 16: // drain again within the same cycle
				for {
					got, want := w.popDue(now), h.popDue(now)
					if got != want {
						t.Logf("seed %d step %d now %d: wheel popped %v, heap %v", seed, step, now, got, want)
						return false
					}
					if got == nil {
						break
					}
				}
			case op < 19: // fast-forward: jump to just before the next event
				a, b := w.nextAt(), h.nextAt()
				if a != b {
					t.Logf("seed %d step %d: nextAt wheel %d, heap %d", seed, step, a, b)
					return false
				}
				if a > now+1 {
					now = a - 1
				} else if r.Intn(4) == 0 {
					now += int64(r.Intn(3 * wheelSize))
				}
			default: // flush
				if r.Intn(5) == 0 {
					w.reset()
					h.reset()
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// ---------- random-program soundness fuzzing ----------

// genProgram emits a random but well-formed program: bounded loops,
// aligned memory accesses over a few small regions, data-dependent
// branches — then every model must retire every load with the
// architecturally correct value (checked inside core.Run).
func genProgram(r *rand.Rand) string {
	var b strings.Builder
	regions := 3
	b.WriteString("\t.data\n")
	for i := 0; i < regions; i++ {
		fmt.Fprintf(&b, "arr%d:\n\t.space %d\n", i, 64+r.Intn(4)*32)
	}
	b.WriteString("\t.text\nmain:\n")
	for i := 0; i < regions; i++ {
		fmt.Fprintf(&b, "\tla $s%d, arr%d\n", i, i)
	}
	fmt.Fprintf(&b, "\tli $s7, %d\n", 200+r.Intn(200))
	b.WriteString("outer:\n")

	body := 10 + r.Intn(25)
	label := 0
	openLabel := -1
	tregs := []string{"$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7"}
	reg := func() string { return tregs[r.Intn(len(tregs))] }
	base := func() string { return fmt.Sprintf("$s%d", r.Intn(regions)) }
	for i := 0; i < body; i++ {
		switch r.Intn(10) {
		case 0, 1: // word store
			fmt.Fprintf(&b, "\tsw %s, %d(%s)\n", reg(), 4*r.Intn(16), base())
		case 2, 3: // word load
			fmt.Fprintf(&b, "\tlw %s, %d(%s)\n", reg(), 4*r.Intn(16), base())
		case 4: // halfword pair
			off := 2 * r.Intn(32)
			fmt.Fprintf(&b, "\tsh %s, %d(%s)\n", reg(), off, base())
			fmt.Fprintf(&b, "\tlhu %s, %d(%s)\n", reg(), off, base())
		case 5: // byte ops
			off := r.Intn(64)
			fmt.Fprintf(&b, "\tsb %s, %d(%s)\n", reg(), off, base())
			fmt.Fprintf(&b, "\tlb %s, %d(%s)\n", reg(), off, base())
		case 6: // data-dependent forward branch (one open at a time)
			if openLabel < 0 {
				fmt.Fprintf(&b, "\tandi $t8, %s, %d\n", reg(), 1+r.Intn(7))
				fmt.Fprintf(&b, "\tbeqz $t8, fl%d\n", label)
				fmt.Fprintf(&b, "\taddi %s, %s, %d\n", reg(), reg(), r.Intn(9)-4)
				openLabel = label
				label++
			}
		case 7: // arithmetic
			fmt.Fprintf(&b, "\tadd %s, %s, %s\n", reg(), reg(), reg())
			fmt.Fprintf(&b, "\txor %s, %s, %s\n", reg(), reg(), reg())
		case 8: // multiply chain
			fmt.Fprintf(&b, "\tmul %s, %s, %s\n", reg(), reg(), reg())
		case 9: // shift
			fmt.Fprintf(&b, "\tsll %s, %s, %d\n", reg(), reg(), r.Intn(8))
		}
		if openLabel >= 0 && r.Intn(2) == 0 {
			fmt.Fprintf(&b, "fl%d:\n", openLabel)
			openLabel = -1
		}
	}
	if openLabel >= 0 {
		fmt.Fprintf(&b, "fl%d:\n", openLabel)
	}
	b.WriteString("\taddi $s7, $s7, -1\n\tbnez $s7, outer\n\thalt\n")
	return b.String()
}

// TestRandomProgramSoundness is the generative end-to-end check: random
// programs, every model, every retired load value verified against the
// golden emulator by the core itself.
func TestRandomProgramSoundness(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		src := genProgram(r)
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v\n%s", seed, err, src)
		}
		tr, err := emu.Run(p, 15_000)
		if err != nil {
			t.Fatalf("seed %d: emulate: %v", seed, err)
		}
		for _, m := range allModels {
			c, err := New(config.Default(m), tr)
			if err != nil {
				t.Fatalf("seed %d/%s: %v", seed, m, err)
			}
			st, err := c.Run()
			if err != nil {
				t.Fatalf("seed %d/%s: %v", seed, m, err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d/%s: %v", seed, m, err)
			}
			if st.Instructions != int64(len(tr.Entries)) {
				t.Fatalf("seed %d/%s: retired %d/%d", seed, m, st.Instructions, len(tr.Entries))
			}
		}
	}
}

// TestRandomProgramConfigMatrix runs a few random programs across the
// configuration axes (width, ROB, SB, consistency, predictor, prefetch)
// to shake out interactions. Remote invalidations are covered by
// TestRandomProgramRemoteInvalidations.
func TestRandomProgramConfigMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfgs := []config.Config{
		config.Default(config.DMDP).WithIssueWidth(2),
		config.Default(config.DMDP).WithROB(64),
		config.Default(config.NoSQ).WithStoreBuffer(4),
		config.Default(config.DMDP).WithConsistency(config.RMO),
		config.Default(config.NoSQ).WithTAGE(true),
		config.Default(config.DMDP).WithPrefetch(true),
		config.Default(config.FnF).WithStoreBuffer(8),
		config.Default(config.Baseline).WithIssueWidth(4),
		config.Default(config.NoSQ).WithSilentStorePolicy(false),
	}
	for seed := 100; seed < 106; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		src := genProgram(r)
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tr, err := emu.Run(p, 10_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, cfg := range cfgs {
			c, err := New(cfg, tr)
			if err != nil {
				t.Fatalf("seed %d cfg %d: %v", seed, i, err)
			}
			if _, err := c.Run(); err != nil {
				t.Fatalf("seed %d cfg %d (%s): %v", seed, i, cfg.Model, err)
			}
		}
	}
}

// TestRandomProgramRemoteInvalidations runs the matrix's random programs
// replicated on a 2-core timing-only Machine under every model. Each
// store one core drains invalidates the other core's L1 line and, except
// under Baseline, stamps its T-SSBF, so loads that read the line early
// re-execute at retire. Both cores must still retire every instruction
// with every oracle check passing.
func TestRandomProgramRemoteInvalidations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := 100; seed < 106; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		p, err := asm.Assemble(genProgram(r))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tr, err := emu.Run(p, 10_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, m := range allModels {
			cfg := DefaultMachineConfig(2, m, MemTSO)
			cfg.Semantics = false
			cfg.Seed = uint64(seed)
			_, st := runMachine(t, cfg, []*trace.Trace{tr, tr})
			for i, c := range st.PerCore {
				if c.Instructions != int64(len(tr.Entries)) || c.OracleChecks != c.Instructions {
					t.Fatalf("seed %d/%s core %d: retired %d/%d with %d oracle checks",
						seed, m, i, c.Instructions, len(tr.Entries), c.OracleChecks)
				}
			}
			if st.PerCore[0].Invalidations == 0 {
				t.Errorf("seed %d/%s: core 0 received no invalidations", seed, m)
			}
			if stamped := st.RemoteStamps > 0; stamped != (m != config.Baseline) {
				t.Errorf("seed %d/%s: %d remote T-SSBF stamps", seed, m, st.RemoteStamps)
			}
		}
	}
}
