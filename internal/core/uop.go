package core

import (
	"dmdp/internal/isa"
	"dmdp/internal/trace"
)

// uopKind enumerates the MicroOp types the decoder/renamer emits.
type uopKind uint8

const (
	uopALU        uopKind = iota // integer/fp computation, jumps with link
	uopBranch                    // conditional branch / indirect jump (resolves fetch)
	uopAGI                       // address generation + TLB translation
	uopLoad                      // cache read (LD)
	uopCMP                       // predication: address comparison -> predicate
	uopCMOV                      // predication: conditional move (two per load)
	uopCloakTrack                // zero-cost tracker: cloaked load's data register readiness
)

// gate describes an extra issue condition beyond operand readiness.
type gateKind uint8

const (
	gateNone      gateKind = iota
	gateSSNCommit          // wait until SSN.Commit >= gateSSN (NoSQ delayed load, baseline partial-overlap)
	gateStoreExec          // wait until the store with seq gateSeq resolves its address (store sets)
	// Baseline loads waiting for a forwarder's *data* register replay
	// through the ordinary operand-wakeup path (issueLoadBaseline).
)

// uop is one scheduled micro-operation. Uops live inline in their inst
// (inst.uops) and share its ROB slot. Word-sized fields come first and
// the one-byte fields last, so the struct carries no padding holes and
// is exactly 64 bytes, the size of one host cache line.
type uop struct {
	inst *inst
	seq  int64 // global dispatch order (issue priority)
	// next links the uop into its timing-wheel bucket while it waits for
	// its completion cycle (see eventWheel).
	next *uop

	dst     int // physical register destination (-1 = none)
	waitCnt int // unready sources remaining

	gateSSN int64
	// gateSeq is the seq of the store whose address resolution a
	// gateStoreExec uop waits for; the store is looked up in instBySeq,
	// which forgets it once it retires or is squashed.
	gateSeq int64

	kind  uopKind
	class isa.Class // execution class (latency / functional unit)
	gate  gateKind
	nsrc  uint8 // physical register sources (register-file reads at issue)

	counted bool // currently occupies an IQ slot
	// cmovSel: for uopCMOV, true when this is the predicate-true arm
	// (selects the store data).
	cmovSel bool
	issued  bool
	done    bool
}

// maxUops is the most uops one instruction cracks into: a predicated
// load (AGI, LD, CMP and two CMOVs).
const maxUops = 5

// inst is one in-flight dynamic instruction (a trace entry instance).
// Insts live in the reorder buffer's slots (robQ.buf), which New
// allocates once: rename builds each instruction in the free slot past
// the youngest one, zeroing instState and truncating the slices, while
// the inline uops keep their previous occupant's contents until newUop
// re-initialises each slot it hands out. A retired or squashed
// instruction's slot keeps its contents, seq included, until rename
// reuses it, so a reference that may outlive its instruction names it
// by seq.
type inst struct {
	uops [maxUops]uop // uops[:nUops] belong to this incarnation

	idx int // trace index (set at every rename)
	instState

	// auxiliary logical mappings created by cracking (HwAddr, HwTmp,
	// HwPred): recorded so retire updates the ARAT for them too.
	auxLog  []int
	auxPhys []int

	// execWaiters are uops gated on this (store) instruction's address
	// resolution (store sets).
	execWaiters []*uop
}

// instState is the scalar per-incarnation state of an inst. The fields
// every instruction touches from rename to retire come first; the flags
// are packed at the end.
type instState struct {
	e       *trace.Entry // the entry (correct-path ground truth)
	d       *decoded     // its decode-table row (registers, class)
	seq     int64        // unique dynamic number (monotone across squashes)
	pending int          // uops not yet done

	// Rename state.
	destLog  int // logical destination (-1 = none); loads with predication also map HwTmp/HwPred
	destPhys int

	renamedAt   int64
	completedAt int64

	// Store state.
	ssn      int64
	dataPhys int // store data register (consumer-counted until commit)
	addrPhys int // AGI destination (address register)

	// Load state.
	storesBefore int64 // stores before the load, from the trace index at rename
	usedDist     int64 // predicted store distance
	ssnByp       int64 // predicted colliding store SSN (0 = none used)
	predIdx      int   // trace index of the predicted store (-1 = none)
	valueAt      int64 // cycle the value became available
	ssnNvul      int64 // SSN.Commit captured when the cache was read

	// Fire-and-Forget state.
	lsn int64 // load sequence number

	srcSSN     int64 // baseline: SSN of the store that supplied the value (-1 = cache read pending)
	forwardIdx int   // baseline: trace index of the forwarding store (-1 = none)

	// Predication register references (consumer-counted).
	predAddrPhys int
	predDataPhys int

	// Retire-time verification state machine.
	tssbfSSN int64
	reexecAt int64 // completion cycle of the re-execution (0 = not issued)

	histAtRen  uint32
	gotValue   uint32 // value the load obtained speculatively
	cacheValue uint32 // raw cache-read result (predication keeps it separate)

	class isa.Class // the opcode's execution class, decoded once at rename
	nUops uint8
	cat   LoadCategory

	addrReady     bool
	lowConf       bool
	actualInFly   bool // ground truth: DepStore was in flight at rename
	predicate     bool // CMP outcome: predicted store forwards
	predicateDone bool
	readCache     bool // value came from the cache (vs an in-flight store)
	violated      bool // baseline: ordering violation -> recover at head
	verifyChecked bool
	needReexec    bool
	didReexec     bool // the SVW check forced a retire-time re-execution
	tssbfMatch    bool
	recoverAfter  bool // exception: flush younger instructions after this retires
}

func (in *inst) isLoad() bool  { return in.class == isa.ClassLoad }
func (in *inst) isStore() bool { return in.class == isa.ClassStore }

// complete reports whether the instruction can retire (all uops done).
func (in *inst) complete() bool { return in.pending == 0 }

// ---------- ready queue (issue priority by age) ----------

// readyEntry carries its uop's seq inline so heap sifts compare without
// dereferencing uops.
type readyEntry struct {
	seq int64
	u   *uop
}

// readyHeap is a hand-rolled binary min-heap ordered by uop seq. It
// deliberately avoids container/heap: the interface indirection costs a
// dynamic dispatch per sift step, and this queue sits on the per-cycle
// issue path.
type readyHeap []readyEntry

func (h readyHeap) Len() int { return len(h) }

func (h *readyHeap) push(u *uop) {
	a := append(*h, readyEntry{seq: u.seq, u: u})
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].seq <= a[i].seq {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*h = a
}

func (h *readyHeap) pop() *uop {
	a := *h
	u := a[0].u
	n := len(a) - 1
	a[0] = a[n]
	a[n] = readyEntry{}
	a = a[:n]
	siftDownReady(a, 0)
	*h = a
	return u
}

func siftDownReady(a []readyEntry, i int) {
	n := len(a)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && a[r].seq < a[l].seq {
			m = r
		}
		if a[i].seq <= a[m].seq {
			return
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
}
