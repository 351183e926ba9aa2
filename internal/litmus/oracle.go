// Package litmus verifies the multicore machine's memory-consistency
// enforcement against an I2E (instantaneous instruction execution)
// reference: for every litmus test it enumerates the complete set of
// final states an idealized machine may produce under the chosen model
// (SC or TSO), runs the timing simulator across many interleaving
// seeds, and fails if the simulator ever commits a final state outside
// the allowed set. Violations are delta-debugged down to a small
// runnable repro via the difftest minimizer.
//
// The reference works on shared-memory EVENTS, not instructions: each
// thread's delay loops, private-line window misses and address setup
// commute with everything and would only inflate the interleaving
// space. Litmus programs are data-race-deterministic by construction
// (progen: addresses, control flow and store data never depend on
// shared loads), so each thread's event sequence is fixed and can be
// read off its isolated single-thread trace.
package litmus

import (
	"fmt"
	"sort"

	"dmdp/internal/core"
	"dmdp/internal/isa"
	"dmdp/internal/progen"
	"dmdp/internal/trace"
)

// Event is one shared-memory access of one thread, in program order.
type Event struct {
	Store bool
	Addr  uint32
	Size  uint32
	Val   uint32  // stores: raw data register value (low Size bytes matter)
	Op    isa.Op  // loads: mnemonic, for sign/zero extension
	Reg   isa.Reg // loads: destination observation register
}

// Oracle holds one litmus test's extracted events and reference state.
type Oracle struct {
	lt      progen.LitmusTest
	prog    *isa.Program
	events  [][]Event
	addrs   []uint32       // shared byte addresses, ascending
	idx     map[uint32]int // byte address -> index into the mem vector
	initMem []byte

	slotOf [][]int // per (thread, event) -> load slot, -1 for stores
	nLoads int
	// regSlot maps (thread, reg) to the load slot observing it.
	regSlot map[[2]int]int
	symAddr map[string]uint32

	storesUpTo [][]int // per thread: #stores among events[0:i]
	storeIdx   [][]int // per thread: ordinal -> event index

	model     core.MemModel
	maxStates int
	states    int
	overflow  bool
	memo      map[string]map[string]struct{}
}

// NewOracle extracts the shared-event sequences for lt from the
// per-thread isolated traces and prepares enumeration under model.
// maxStates caps the explored state count (<=0 picks a default).
func NewOracle(model core.MemModel, lt progen.LitmusTest, p *isa.Program, traces []*trace.Trace, maxStates int) (*Oracle, error) {
	if len(traces) != lt.Threads {
		return nil, fmt.Errorf("litmus %s: %d traces for %d threads", lt.Name, len(traces), lt.Threads)
	}
	if maxStates <= 0 {
		maxStates = 2_000_000
	}
	o := &Oracle{
		lt: lt, prog: p, model: model, maxStates: maxStates,
		idx:     make(map[uint32]int),
		regSlot: make(map[[2]int]int),
		symAddr: make(map[string]uint32),
		memo:    make(map[string]map[string]struct{}),
	}
	for _, sym := range lt.Shared {
		a, ok := p.Symbols[sym]
		if !ok {
			return nil, fmt.Errorf("litmus %s: shared symbol %q not in program", lt.Name, sym)
		}
		o.symAddr[sym] = a
		for b := uint32(0); b < 4; b++ {
			if _, dup := o.idx[a+b]; !dup {
				o.addrs = append(o.addrs, a+b)
			}
		}
	}
	sort.Slice(o.addrs, func(i, j int) bool { return o.addrs[i] < o.addrs[j] })
	for i, a := range o.addrs {
		o.idx[a] = i
	}
	o.initMem = make([]byte, len(o.addrs))
	for i, a := range o.addrs {
		o.initMem[i] = traces[0].InitMem.Byte(a)
	}

	obsRegs := make(map[int]map[isa.Reg]bool)
	for _, ob := range lt.Obs {
		if ob.Thread >= 0 {
			if obsRegs[ob.Thread] == nil {
				obsRegs[ob.Thread] = make(map[isa.Reg]bool)
			}
			obsRegs[ob.Thread][ob.Reg] = true
		}
	}

	o.events = make([][]Event, lt.Threads)
	o.slotOf = make([][]int, lt.Threads)
	for t, tr := range traces {
		for i := range tr.Entries {
			e := &tr.Entries[i]
			switch {
			case e.IsStore():
				in, err := o.inShared(e.Addr, uint32(e.Size))
				if err != nil {
					return nil, fmt.Errorf("litmus %s thread %d pc 0x%x: %v", lt.Name, t, e.PC, err)
				}
				if !in {
					continue
				}
				o.events[t] = append(o.events[t], Event{
					Store: true, Addr: e.Addr, Size: uint32(e.Size), Val: e.Value,
				})
				o.slotOf[t] = append(o.slotOf[t], -1)
			case e.IsLoad():
				instr, _ := tr.Prog.InstrAt(e.PC)
				dest := instr.Dest()
				if !obsRegs[t][dest] {
					continue
				}
				in, err := o.inShared(e.Addr, uint32(e.Size))
				if err != nil {
					return nil, fmt.Errorf("litmus %s thread %d pc 0x%x: %v", lt.Name, t, e.PC, err)
				}
				if !in {
					return nil, fmt.Errorf("litmus %s thread %d pc 0x%x: observation register %v loaded from non-shared 0x%x", lt.Name, t, e.PC, dest, e.Addr)
				}
				key := [2]int{t, int(dest)}
				if _, dup := o.regSlot[key]; dup {
					return nil, fmt.Errorf("litmus %s thread %d: observation register %v loaded twice", lt.Name, t, dest)
				}
				o.regSlot[key] = o.nLoads
				o.events[t] = append(o.events[t], Event{
					Addr: e.Addr, Size: uint32(e.Size), Op: e.Op, Reg: dest,
				})
				o.slotOf[t] = append(o.slotOf[t], o.nLoads)
				o.nLoads++
			}
		}
	}

	o.storesUpTo = make([][]int, lt.Threads)
	o.storeIdx = make([][]int, lt.Threads)
	for t, evs := range o.events {
		o.storesUpTo[t] = make([]int, len(evs)+1)
		for i, ev := range evs {
			o.storesUpTo[t][i+1] = o.storesUpTo[t][i]
			if ev.Store {
				o.storesUpTo[t][i+1]++
				o.storeIdx[t] = append(o.storeIdx[t], i)
			}
		}
	}
	return o, nil
}

// Events returns the extracted per-thread shared-event sequences.
func (o *Oracle) Events() [][]Event { return o.events }

// inShared reports whether [addr, addr+size) lies inside a shared
// word; straddling a shared boundary is a structural error.
func (o *Oracle) inShared(addr, size uint32) (bool, error) {
	n := 0
	for b := uint32(0); b < size; b++ {
		if _, ok := o.idx[addr+b]; ok {
			n++
		}
	}
	switch n {
	case 0:
		return false, nil
	case int(size):
		return true, nil
	}
	return false, fmt.Errorf("access 0x%x+%d straddles a shared-variable boundary", addr, size)
}

// ---------- enumeration ----------

type ostate struct {
	pos     []uint8
	drained []uint8 // TSO: stores made globally visible, per thread
	mem     []byte
}

func (s *ostate) clone() *ostate {
	ns := &ostate{
		pos:     append([]uint8(nil), s.pos...),
		drained: append([]uint8(nil), s.drained...),
		mem:     append([]byte(nil), s.mem...),
	}
	return ns
}

func (s *ostate) key() string {
	b := make([]byte, 0, len(s.pos)+len(s.drained)+len(s.mem))
	b = append(b, s.pos...)
	b = append(b, s.drained...)
	b = append(b, s.mem...)
	return string(b)
}

// suffix outcomes are encoded as nLoads*5 bytes (set flag + LE32 value)
// followed by the final mem vector.
func (o *Oracle) encodeSuffix(slots []int64, m []byte) string {
	b := make([]byte, 0, o.nLoads*5+len(m))
	for _, v := range slots {
		if v < 0 {
			b = append(b, 0, 0, 0, 0, 0)
		} else {
			b = append(b, 1, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
	}
	return string(append(b, m...))
}

func (o *Oracle) decodeSuffix(s string) (slots []int64, m []byte) {
	b := []byte(s)
	slots = make([]int64, o.nLoads)
	for i := range slots {
		p := b[i*5 : i*5+5]
		if p[0] == 0 {
			slots[i] = -1
		} else {
			slots[i] = int64(uint32(p[1]) | uint32(p[2])<<8 | uint32(p[3])<<16 | uint32(p[4])<<24)
		}
	}
	return slots, b[o.nLoads*5:]
}

func (o *Oracle) withSlot(suffix string, slot int, val uint32) string {
	slots, m := o.decodeSuffix(suffix)
	slots[slot] = int64(val)
	return o.encodeSuffix(slots, m)
}

// applyStore overlays a store's bytes onto the mem vector.
func (o *Oracle) applyStore(m []byte, ev *Event) {
	for b := uint32(0); b < ev.Size; b++ {
		m[o.idx[ev.Addr+b]] = byte(ev.Val >> (8 * b))
	}
}

// loadValue composes a load's raw value: under TSO the thread's own
// undrained stores forward byte-granularly (youngest first), then the
// global mem vector; under SC only the mem vector exists.
func (o *Oracle) loadValue(s *ostate, t int, ev *Event) uint32 {
	var raw uint32
	for b := uint32(0); b < ev.Size; b++ {
		a := ev.Addr + b
		v := s.mem[o.idx[a]]
		if o.model == core.MemTSO {
			pending := o.storesUpTo[t][s.pos[t]]
			for k := pending - 1; k >= int(s.drained[t]); k-- {
				st := &o.events[t][o.storeIdx[t][k]]
				if a >= st.Addr && a < st.Addr+st.Size {
					v = byte(st.Val >> (8 * (a - st.Addr)))
					break
				}
			}
		}
		raw |= uint32(v) << (8 * b)
	}
	return trace.ExtendLoad(ev.Op, raw)
}

// closure executes TSO stores into their store buffers: entering the
// buffer has no globally visible effect, so it never branches (partial
// order reduction; drains remain nondeterministic).
func (o *Oracle) closure(s *ostate) {
	if o.model != core.MemTSO {
		return
	}
	for t := range o.events {
		for int(s.pos[t]) < len(o.events[t]) && o.events[t][s.pos[t]].Store {
			s.pos[t]++
		}
	}
}

func (o *Oracle) terminal(s *ostate) bool {
	for t := range o.events {
		if int(s.pos[t]) != len(o.events[t]) {
			return false
		}
		if o.model == core.MemTSO && int(s.drained[t]) != len(o.storeIdx[t]) {
			return false
		}
	}
	return true
}

// explore returns the set of encoded suffix outcomes reachable from s.
// Suffix outcomes do not depend on the path that led to s (each load
// slot is written exactly once, at its own event), so they memoize on
// the state alone.
func (o *Oracle) explore(s *ostate) map[string]struct{} {
	o.closure(s)
	key := s.key()
	if out, ok := o.memo[key]; ok {
		return out
	}
	o.states++
	if o.states > o.maxStates {
		o.overflow = true
		return nil
	}
	out := make(map[string]struct{})
	if o.terminal(s) {
		unset := make([]int64, o.nLoads)
		for i := range unset {
			unset[i] = -1
		}
		out[o.encodeSuffix(unset, s.mem)] = struct{}{}
		o.memo[key] = out
		return out
	}
	for t := range o.events {
		if int(s.pos[t]) < len(o.events[t]) {
			ev := &o.events[t][s.pos[t]]
			ns := s.clone()
			if ev.Store { // SC only; TSO stores were closed into the buffer
				o.applyStore(ns.mem, ev)
				ns.pos[t]++
				for suf := range o.explore(ns) {
					out[suf] = struct{}{}
				}
			} else {
				val := o.loadValue(s, t, ev)
				slot := o.slotOf[t][s.pos[t]]
				ns.pos[t]++
				for suf := range o.explore(ns) {
					out[o.withSlot(suf, slot, val)] = struct{}{}
				}
			}
		}
		if o.model == core.MemTSO && int(s.drained[t]) < o.storesUpTo[t][s.pos[t]] {
			ns := s.clone()
			o.applyStore(ns.mem, &o.events[t][o.storeIdx[t][s.drained[t]]])
			ns.drained[t]++
			for suf := range o.explore(ns) {
				out[suf] = struct{}{}
			}
		}
	}
	o.memo[key] = out
	return out
}

// Allowed enumerates the model's complete set of final states, rendered
// in the observation-spec display format, sorted.
func (o *Oracle) Allowed() ([]string, error) {
	init := &ostate{
		pos:     make([]uint8, o.lt.Threads),
		drained: make([]uint8, o.lt.Threads),
		mem:     append([]byte(nil), o.initMem...),
	}
	suffixes := o.explore(init)
	if o.overflow {
		return nil, fmt.Errorf("litmus %s: state space exceeds %d states", o.lt.Name, o.maxStates)
	}
	seen := make(map[string]bool)
	var out []string
	for suf := range suffixes {
		slots, m := o.decodeSuffix(suf)
		disp := o.display(func(t int, r isa.Reg) uint32 {
			if slot, ok := o.regSlot[[2]int{t, int(r)}]; ok && slots[slot] >= 0 {
				return uint32(slots[slot])
			}
			return 0 // observation register never loaded (e.g. minimized away)
		}, func(sym string) uint32 {
			a := o.symAddr[sym]
			var v uint32
			for b := uint32(0); b < 4; b++ {
				v |= uint32(m[o.idx[a+b]]) << (8 * b)
			}
			return v
		})
		if !seen[disp] {
			seen[disp] = true
			out = append(out, disp)
		}
	}
	sort.Strings(out)
	return out, nil
}

// display renders one final state in observation order.
func (o *Oracle) display(reg func(int, isa.Reg) uint32, memw func(string) uint32) string {
	out := ""
	for i, ob := range o.lt.Obs {
		if i > 0 {
			out += " "
		}
		if ob.Thread >= 0 {
			out += fmt.Sprintf("%s=%d", ob.Name, reg(ob.Thread, ob.Reg))
		} else {
			out += fmt.Sprintf("%s=%d", ob.Name, memw(ob.Sym))
		}
	}
	return out
}

// OutcomeOf renders a finished machine run's final state in the same
// format as Allowed, so membership is a string comparison.
func (o *Oracle) OutcomeOf(m *core.Machine) string {
	return o.display(func(t int, r isa.Reg) uint32 {
		return m.FinalRegs(t)[r]
	}, func(sym string) uint32 {
		return m.ReadShared(o.symAddr[sym], 4)
	})
}
