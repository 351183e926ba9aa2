package core

import (
	"fmt"

	"dmdp/internal/emu"
	"dmdp/internal/isa"
	"dmdp/internal/mem"
	"dmdp/internal/trace"
)

// The semantic coupling layer. The timing cores replay isolated
// per-thread traces, so their register values are the isolated-world
// ones; under a real interleaving a load may legally observe another
// core's store instead. This layer maintains the true concurrent
// architectural state — per-core register files, a globally ordered
// shared memory with per-word version history, and per-core semantic
// store buffers under TSO — and executes every retiring instruction
// through the shared emu.Exec interpreter.
//
// Load value rule (the machine's consistency enforcement, checked by
// the litmus harness):
//
//   - re-executed at retire (SVW forced a reload with the store buffer
//     drained), or store-sourced (cloaked / predication-selected /
//     forwarded): read the globally visible state at retirement, with
//     own-store-buffer forwarding under TSO. Sound: an intervening
//     remote write would have stamped the T-SSBF sentinel and forced
//     the re-execution case.
//   - cache-sourced and not re-executed: the timing core kept an early
//     cache sample from cycle ValueAt. If no remote write became
//     visible since, reading at retirement is byte-identical and the
//     sample is vacuously consistent. If one did, the retire-time
//     backstop re-reads (EnforcedReads) — unless the build is
//     weakened, in which case the stale sample is reconstructed from
//     the version history as of the sample cycle and kept
//     (StaleReadsKept): the ordering bug the checker must catch.
//
// Every load therefore linearizes at its retirement in the enforced
// build, which keeps all outcomes inside the I2E-allowed set; the
// weakened build re-creates the classic store-buffer reorderings.

type semStore struct {
	addr, size, val uint32
}

type wordVersion struct {
	g   int64 // global cycle the version became visible (-1 = initial)
	val uint32
}

// wordHist is the append-only version history of one aligned word of
// globally visible memory.
type wordHist struct {
	versions []wordVersion
}

func (h *wordHist) last() wordVersion { return h.versions[len(h.versions)-1] }

// asOf returns the word value visible at global cycle g (versions are
// appended in increasing g; the initial version has g = -1).
func (h *wordHist) asOf(g int64) uint32 {
	lo, hi := 0, len(h.versions)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if h.versions[mid].g <= g {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return h.versions[lo].val
}

func sizeMask(size uint32) uint32 {
	if size >= 4 {
		return 0xffffffff
	}
	return 1<<(8*size) - 1
}

// overlayWord writes the low size bytes of val into old at byte offset
// off (little-endian, matching mem.Image).
func overlayWord(old uint32, off, size, val uint32) uint32 {
	m := sizeMask(size) << (8 * off)
	return old&^m | (val&sizeMask(size))<<(8*off)
}

type mcSem struct {
	m      *Machine
	regs   [][isa.NumArchRegs]uint32
	pc     []uint32
	halted []bool

	shmem *mem.Image           // current globally visible bytes
	hist  map[uint32]*wordHist // word addr -> version history
	sbs   [][]semStore         // per-core semantic store buffers (TSO)

	// mem is the memory Exec sees while an instruction retires.
	mem semMem
	// divergence records a desync detected inside a memory access
	// (which cannot return an error); retire surfaces it as a veto.
	divergence string
	// err records a desync detected at drain time (outside any
	// retirement); Machine.Run surfaces it.
	err error
}

func newMCSem(m *Machine, traces []*trace.Trace) (*mcSem, error) {
	s := &mcSem{
		m:      m,
		regs:   make([][isa.NumArchRegs]uint32, len(traces)),
		pc:     make([]uint32, len(traces)),
		halted: make([]bool, len(traces)),
		hist:   make(map[uint32]*wordHist),
		sbs:    make([][]semStore, len(traces)),
	}
	for i, tr := range traces {
		if tr.Prog == nil || tr.InitMem == nil {
			return nil, fmt.Errorf("machine: semantics need program and initial memory (core %d)", i)
		}
		s.regs[i][isa.SP] = emu.StackTop
		s.regs[i][isa.GP] = tr.Prog.DataBase
		s.pc[i] = tr.Prog.Entry
	}
	// All threads run the same program image (different entry points),
	// so any core's initial memory is the shared initial state.
	s.shmem = traces[0].InitMem.Clone()
	return s, nil
}

// retire executes core i's retiring instruction against the semantic
// state. A non-nil error vetoes the retirement (ErrLockstep).
func (s *mcSem) retire(i int, rec CommitRecord) error {
	if s.halted[i] {
		return fmt.Errorf("semantic: core %d retired past HALT", i)
	}
	if rec.PC != s.pc[i] {
		return fmt.Errorf("semantic: core %d PC desync: retired 0x%08x, semantic 0x%08x (interleaving-dependent control flow?)", i, rec.PC, s.pc[i])
	}
	s.divergence = ""
	s.mem = semMem{s: s, i: i, rec: rec}
	var ent trace.Entry
	if err := emu.Exec(rec.Instr, rec.PC, &s.regs[i], &s.mem, &ent); err != nil {
		return fmt.Errorf("semantic: core %d: %v", i, err)
	}
	if s.divergence != "" {
		return fmt.Errorf("semantic: core %d: %s", i, s.divergence)
	}
	s.pc[i] = ent.Target
	if rec.Instr.Op == isa.OpHALT {
		s.halted[i] = true
	}
	return nil
}

// semMem is the memory Exec reads and writes while core i retires rec:
// loads resolve through loadValue, stores through storeEffect.
type semMem struct {
	s   *mcSem
	i   int
	rec CommitRecord
}

func (m *semMem) Read(addr, size uint32) uint32 { return m.s.loadValue(m.i, &m.rec, addr, size) }
func (m *semMem) Write(addr, size, val uint32)  { m.s.storeEffect(m.i, &m.rec, addr, size, val) }

// loadValue resolves a memory read for core i per the load value rule.
// It also serves the silent-store probe emu.Exec issues before a store
// (rec.IsStore), which simply reads the current visible state.
func (s *mcSem) loadValue(i int, rec *CommitRecord, addr, size uint32) uint32 {
	if rec.IsLoad {
		if addr != rec.Addr {
			s.divergence = fmt.Sprintf("load address desync at pc 0x%08x: semantic 0x%08x, trace 0x%08x (shared data flowed into an address?)", rec.PC, addr, rec.Addr)
			return 0
		}
		if !rec.Reexecuted && rec.FromCache {
			sampleG := s.m.globalOf(i, rec.ValueAt)
			if s.writtenAfter(addr, sampleG) {
				if s.m.cfg.Weaken {
					s.m.stats.StaleReadsKept++
					return s.readAsOf(addr, size, sampleG)
				}
				s.m.stats.EnforcedReads++
			}
		}
	}
	return s.readNow(i, addr, size)
}

// storeEffect applies a retiring store: immediate global visibility
// under SC, semantic store-buffer entry under TSO (published at the
// timing drain).
func (s *mcSem) storeEffect(i int, rec *CommitRecord, addr, size, val uint32) {
	if addr != rec.Addr || size != uint32(rec.Size) {
		s.divergence = fmt.Sprintf("store address desync at pc 0x%08x: semantic 0x%08x/%d, trace 0x%08x/%d", rec.PC, addr, size, rec.Addr, rec.Size)
		return
	}
	if s.m.cfg.MemModel == MemSC {
		s.publish(i, addr, size, val)
		return
	}
	s.sbs[i] = append(s.sbs[i], semStore{addr: addr, size: size, val: val})
}

// drain publishes the semantic store matching the timing store-buffer
// entry that just became visible (TSO FIFO order: the heads match).
func (s *mcSem) drain(i int, e *sbEntry) {
	sb := s.sbs[i]
	if len(sb) == 0 || sb[0].addr != e.addr || sb[0].size != e.size {
		if s.err == nil {
			s.err = fmt.Errorf("semantic: core %d drain desync at addr 0x%08x (semantic buffer %d entries)", i, e.addr, len(sb))
		}
		return
	}
	st := sb[0]
	s.sbs[i] = sb[1:]
	s.publish(i, st.addr, st.size, st.val)
}

// publish makes a store globally visible at the current global cycle:
// version history, current image, and remote invalidation delivery.
func (s *mcSem) publish(i int, addr, size, val uint32) {
	word := addr &^ 3
	h := s.hist[word]
	if h == nil {
		h = &wordHist{versions: []wordVersion{{g: -1, val: s.shmem.Word(word)}}}
		s.hist[word] = h
	}
	h.versions = append(h.versions, wordVersion{g: s.m.g, val: overlayWord(h.last().val, addr&3, size, val)})
	s.shmem.Write(addr, size, val)
	s.m.remoteInvalidate(i, addr)
}

// writtenAfter reports whether the word containing addr was globally
// written after cycle g (word-granular: a neighbouring-byte write in
// the same word counts, which is conservative and always sound — the
// backstop re-read it triggers is a legal linearization).
func (s *mcSem) writtenAfter(addr uint32, g int64) bool {
	h := s.hist[addr&^3]
	return h != nil && h.last().g > g
}

// readNow composes the value visible to core i right now: own semantic
// store buffer first (youngest entry per byte, TSO forwarding), then
// the globally visible image.
func (s *mcSem) readNow(i int, addr, size uint32) uint32 {
	var v uint32
	for b := uint32(0); b < size; b++ {
		v |= uint32(s.byteNow(i, addr+b)) << (8 * b)
	}
	return v
}

func (s *mcSem) byteNow(i int, a uint32) byte {
	sb := s.sbs[i]
	for k := len(sb) - 1; k >= 0; k-- {
		e := &sb[k]
		if a >= e.addr && a < e.addr+e.size {
			return byte(e.val >> (8 * (a - e.addr)))
		}
	}
	return s.shmem.Byte(a)
}

// readAsOf reconstructs the globally visible value at cycle g from the
// version history (weakened build: the stale early sample).
func (s *mcSem) readAsOf(addr, size uint32, g int64) uint32 {
	word := addr &^ 3
	wv := s.shmem.Word(word)
	if h := s.hist[word]; h != nil {
		wv = h.asOf(g)
	}
	return (wv >> (8 * (addr & 3))) & sizeMask(size)
}

// ---------- machine-level semantic accessors ----------

// FinalRegs returns core i's semantic architectural register file
// (valid after Run; requires semantics).
func (m *Machine) FinalRegs(i int) [isa.NumArchRegs]uint32 {
	return m.sem.regs[i]
}

// ReadShared reads the globally visible memory (valid after Run, when
// every store has been published; requires semantics).
func (m *Machine) ReadShared(addr, size uint32) uint32 {
	return m.sem.shmem.Read(addr, size)
}

// SemanticsAttached reports whether the semantic layer is active.
func (m *Machine) SemanticsAttached() bool { return m.sem != nil }
