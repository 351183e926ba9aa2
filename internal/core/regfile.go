package core

import (
	"fmt"

	"dmdp/internal/isa"
)

// physReg is one physical register's bookkeeping state. DMDP extends the
// conventional lifetime rules (paper §IV-B): a register may be defined
// more than once (memory cloaking, the two CMOVs sharing a destination),
// tracked by the producer counter, and may be read after its last
// definition retires (store data/address registers read at commit,
// predication MicroOps reading in-flight store registers), tracked by the
// consumer counter. A register frees only when both counters are zero.
type physReg struct {
	ready     bool
	producers int // live definitions
	consumers int // outstanding late readers (stores pending commit, predication uops)
	free      bool
}

// refErr records a reference-count underflow observed by maybeFree; the
// core surfaces it as a structured SimError attributed to the
// instruction whose release triggered it (see Core.checkRefs).
type refErr struct {
	p                    int
	producers, consumers int
}

// regFile is the physical register file plus the speculative and
// architectural rename tables and the free list.
type regFile struct {
	regs     []physReg
	rat      [isa.NumLogicalRegs]int // speculative map
	arat     [isa.NumLogicalRegs]int // architectural (retired) map
	freeList []int

	// waiters maps a physical register to the uops stalled on it.
	waiters [][]*uop

	// badRef holds the first refcount underflow until the core collects
	// it (nil when the counters are consistent).
	badRef *refErr
}

func newRegFile(n int) *regFile {
	rf := &regFile{
		regs:    make([]physReg, n),
		waiters: make([][]*uop, n),
	}
	// Logical registers start mapped to p0..p34, ready and live.
	for l := 0; l < isa.NumLogicalRegs; l++ {
		rf.rat[l] = l
		rf.arat[l] = l
		rf.regs[l] = physReg{ready: true, producers: 1}
	}
	for p := n - 1; p >= isa.NumLogicalRegs; p-- {
		rf.regs[p].free = true
		rf.freeList = append(rf.freeList, p)
	}
	return rf
}

// freeCount returns the number of allocatable registers.
func (rf *regFile) freeCount() int { return len(rf.freeList) }

// alloc takes a register from the free list with one producer.
func (rf *regFile) alloc() int {
	p := rf.freeList[len(rf.freeList)-1]
	rf.freeList = rf.freeList[:len(rf.freeList)-1]
	rf.regs[p] = physReg{free: false, producers: 1}
	rf.waiters[p] = rf.waiters[p][:0]
	return p
}

// addProducer registers an additional definition of p (cloaking, second
// CMOV).
func (rf *regFile) addProducer(p int) { rf.regs[p].producers++ }

// addConsumer extends p's lifetime past release (store regs pending
// commit, predication reads).
func (rf *regFile) addConsumer(p int) { rf.regs[p].consumers++ }

// dropConsumer releases one late-reader reference, freeing p if dead.
func (rf *regFile) dropConsumer(p int) {
	rf.regs[p].consumers--
	rf.maybeFree(p)
}

// dropProducer virtually releases one definition of p (at retire of the
// redefining instruction), freeing p if dead.
func (rf *regFile) dropProducer(p int) {
	rf.regs[p].producers--
	rf.maybeFree(p)
}

func (rf *regFile) maybeFree(p int) {
	r := &rf.regs[p]
	if r.producers < 0 || r.consumers < 0 {
		// Record the underflow (first wins) instead of panicking; the
		// register is left un-freed so the state stays inspectable.
		if rf.badRef == nil {
			rf.badRef = &refErr{p: p, producers: r.producers, consumers: r.consumers}
		}
		return
	}
	if r.producers == 0 && r.consumers == 0 && !r.free {
		r.free = true
		rf.freeList = append(rf.freeList, p)
	}
}

// setReady marks p's value available and returns the woken uops. The
// returned slice keeps its backing array registered as p's (now empty)
// waiter list — safe to iterate because await never appends to a ready
// register, and p cannot be re-allocated mid-writeback (only rename
// allocates).
func (rf *regFile) setReady(p int) []*uop {
	rf.regs[p].ready = true
	w := rf.waiters[p]
	rf.waiters[p] = w[:0]
	return w
}

// await registers u as waiting for p; returns false when p is already
// ready (no wait needed).
func (rf *regFile) await(p int, u *uop) bool {
	if rf.regs[p].ready {
		return false
	}
	rf.waiters[p] = append(rf.waiters[p], u)
	return true
}

// resetToARAT rebuilds the speculative state from the architectural map
// after a full-pipeline recovery: the RAT becomes the ARAT, producer
// counts are recomputed from ARAT occupancy, consumer counts are
// recomputed from the surviving late readers (the store buffer's pending
// data/address registers, passed in by the caller), and everything else
// returns to the free list, ready.
func (rf *regFile) resetToARAT(sbRefs []int) {
	rf.rat = rf.arat
	for p := range rf.regs {
		rf.regs[p].producers = 0
		rf.regs[p].consumers = 0
		rf.waiters[p] = rf.waiters[p][:0]
	}
	for _, p := range rf.arat {
		rf.regs[p].producers++
	}
	for _, p := range sbRefs {
		rf.regs[p].consumers++
	}
	rf.freeList = rf.freeList[:0]
	for p := len(rf.regs) - 1; p >= 0; p-- {
		r := &rf.regs[p]
		r.free = r.producers == 0 && r.consumers == 0
		r.ready = true
		if r.free {
			rf.freeList = append(rf.freeList, p)
		}
	}
}

// checkInvariants panics when reference counting is inconsistent (used by
// tests via Core.CheckInvariants).
func (rf *regFile) checkInvariants() error {
	if b := rf.badRef; b != nil {
		return fmt.Errorf("core: negative refcount on p%d (%d/%d)", b.p, b.producers, b.consumers)
	}
	seen := make(map[int]bool, len(rf.freeList))
	for _, p := range rf.freeList {
		if seen[p] {
			return fmt.Errorf("core: p%d on free list twice", p)
		}
		seen[p] = true
		if !rf.regs[p].free {
			return fmt.Errorf("core: p%d on free list but not marked free", p)
		}
		if rf.regs[p].producers != 0 || rf.regs[p].consumers != 0 {
			return fmt.Errorf("core: free p%d has refs %d/%d", p, rf.regs[p].producers, rf.regs[p].consumers)
		}
	}
	for l, p := range rf.rat {
		if rf.regs[p].free {
			return fmt.Errorf("core: RAT[%d] -> free p%d", l, p)
		}
	}
	for l, p := range rf.arat {
		if rf.regs[p].free {
			return fmt.Errorf("core: ARAT[%d] -> free p%d", l, p)
		}
	}
	return nil
}
