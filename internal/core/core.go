package core

import (
	"context"
	"fmt"
	"time"

	"dmdp/internal/bpred"
	"dmdp/internal/cache"
	"dmdp/internal/config"
	"dmdp/internal/faults"
	"dmdp/internal/isa"
	"dmdp/internal/mem"
	"dmdp/internal/memdep"
	"dmdp/internal/tlb"
	"dmdp/internal/trace"
)

// fqCap is the fetch queue capacity. Power of two: the queue is a ring.
const fqCap = 64

// fetchEntry is a fetched instruction waiting to rename.
type fetchEntry struct {
	idx      int
	readyAt  int64
	blocking bool   // mispredicted control op: fetch stalls behind it
	hist     uint32 // global branch history as of this instruction's fetch
}

// robQ is the reorder buffer: a FIFO ring of in-flight instructions
// that is also their storage. Each slot holds its instruction inline, so
// the window is one array that New allocates once and in-flight state
// sits in program order; nothing is allocated, pooled or freed per
// instruction.
type robQ struct {
	buf  []inst
	head int
	size int
}

func newRobQ(capacity int) *robQ { return &robQ{buf: make([]inst, capacity)} }

func (q *robQ) full() bool   { return q.size == len(q.buf) }
func (q *robQ) empty() bool  { return q.size == 0 }
func (q *robQ) len() int     { return q.size }
func (q *robQ) front() *inst { return &q.buf[q.head] }

// slot maps the i-th oldest position (0 <= i < len(buf)) to its ring
// index with a conditional wrap instead of a division.
func (q *robQ) slot(i int) int {
	j := q.head + i
	if j >= len(q.buf) {
		j -= len(q.buf)
	}
	return j
}

// next returns the free slot past the youngest instruction (the queue
// must not be full). Rename builds an instruction there in place, and
// push then makes it the youngest.
func (q *robQ) next() *inst { return &q.buf[q.slot(q.size)] }

// push appends the instruction built in next's slot.
func (q *robQ) push() { q.size++ }

// popFront retires the oldest instruction. Its slot keeps its contents
// until a later push reuses it.
func (q *robQ) popFront() {
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.size--
}

// at returns the i-th oldest instruction.
func (q *robQ) at(i int) *inst { return &q.buf[q.slot(i)] }

// clear empties the window (a flush squashes every instruction).
func (q *robQ) clear() { q.head, q.size = 0, 0 }

// Core is one timing simulation of a trace under a configuration.
type Core struct {
	cfg config.Config
	tr  *trace.Trace

	// dec is the decode table: one row per instruction of tr.Prog.Text,
	// indexed by (PC - textBase) / 4.
	dec      []decoded
	textBase uint32

	// Substrates.
	hier  *cache.Hierarchy
	tlb   *tlb.TLB
	bp    *bpred.Predictor
	tssbf *memdep.TSSBF
	sdp   memdep.DistancePredictor
	sets  *memdep.StoreSets
	ssn   memdep.SSN

	// Committed memory state (exactly the retired stores).
	image *mem.Image

	// Pipeline state.
	now     int64
	rf      *regFile
	rob     *robQ
	iqCount int
	ready   readyHeap
	events  eventWheel
	delayed []*uop // gateSSNCommit uops parked until SSN.Commit advances

	fq            []fetchEntry // ring of fqCap entries
	fqHead, fqLen int
	fetchIdx      int
	fetchStalled  bool  // mispredicted control op in flight
	fetchBlockIdx int   // trace idx of the blocking op
	blockSeq      int64 // the blocking op's seq once renamed (0 = not yet)
	fetchResumeAt int64

	sb  *storeBuffer
	srb *storeRegBuffer

	// instBySeq holds in-flight stores keyed by seq&instSeqMask (store
	// sets). The ring's capacity exceeds the ROB size and in-flight seqs
	// are consecutive, so two live instructions never share a slot;
	// lookups validate the resident's seq (retired entries go stale in
	// place instead of being deleted).
	instBySeq   []*inst
	instSeqMask int64

	seqCounter     int64
	uopSeq         int64
	retired        int64
	lastRetireAt   int64
	divBusyUntil   int64
	fpDivBusyUntil int64
	done           bool

	// Idle-cycle fast-forward: progress records whether the current
	// cycle changed any simulation state; a cycle that provably did
	// nothing lets the core jump straight to the next deadline (see
	// fastForward). ffEnabled gates the whole mechanism — off when the
	// config disables it and under fault injection, whose runs keep the
	// plain stepped schedule.
	progress  bool
	ffEnabled bool

	// Hardening layer: the first structured failure (oracle divergence,
	// watchdog expiry, desync, refcount underflow), the diagnostic ring
	// of recently retired instructions, and the fault injector (nil when
	// injection is disabled).
	simErr    *SimError
	retireLog [retireLogCap]retireEntry
	inj       *faults.Injector

	// Commit-stream observer (difftest lockstep; nil when unattached).
	commitHook CommitHook

	// drainHook observes each store-buffer entry as its bytes become
	// globally visible (finishCommit). The multicore Machine uses it as
	// the TSO store-visibility point; nil when unattached.
	drainHook func(e *sbEntry)

	// Warmup bookkeeping: the cycle and cache counters at the end of
	// the measurement warmup.
	cycleBase        int64
	warmL1A, warmL1M int64

	// Fire-and-Forget state: load sequence numbers and the pending
	// store->load forwards keyed by target LSN.
	sft        *memdep.SFT
	lsnRename  int64
	lsnRetire  int64
	pendingFwd *fwdRing

	// Per-cycle scratch: the steady-state cycle loop must not allocate
	// (see the allocation-regression guard in core tests).
	stash    []*uop // issue(): uops popped but not issuable this cycle
	sbRefBuf []int  // flush(): surviving store-buffer register refs

	// onDepMispredict, when set, observes each dependence exception
	// (diagnostics/tests).
	onDepMispredict func(*inst)

	// progressFn, when set, receives (retired, cycle) every
	// cancelPollInterval loop iterations (streaming stats for dmdpd).
	progressFn func(retired, cycles int64)

	// tracer, when attached, records per-instruction stage timings.
	tracer *PipeTracer

	stats Stats
}

// decoded is one row of the decode table: the static facts of one
// instruction of the program, decoded once per core so that rename does
// not decode every dynamic instance again.
type decoded struct {
	instr isa.Instr
	class isa.Class
	dest  isa.Reg // NoReg when the instruction writes no register
	srcs  [2]isa.Reg
	nsrc  uint8
}

// decodeProgram builds the decode table of p.
func decodeProgram(p *isa.Program) []decoded {
	dec := make([]decoded, len(p.Text))
	for i, in := range p.Text {
		d := &dec[i]
		d.instr, d.class, d.dest = in, in.Op.Class(), in.Dest()
		d.nsrc = uint8(len(in.Srcs(d.srcs[:0]))) // at most two: appends in place
	}
	return dec
}

// decode returns the decode-table row of entry e, or nil when e's PC is
// outside the program text or its opcode disagrees with the program.
func (c *Core) decode(e *trace.Entry) *decoded {
	off := e.PC - c.textBase
	if off&3 != 0 || off>>2 >= uint32(len(c.dec)) {
		return nil
	}
	if d := &c.dec[off>>2]; d.instr.Op == e.Op {
		return d
	}
	return nil
}

// disasm renders entry e's instruction from the program (diagnostics).
func (c *Core) disasm(e *trace.Entry) string {
	if d := c.decode(e); d != nil {
		return d.instr.String()
	}
	return fmt.Sprintf("%s (pc 0x%08x does not match the program)", e.Op, e.PC)
}

// New builds a core over the analyzed trace. A trace with entries must
// carry its program, which rename reads registers and immediates from,
// and its sequence-number index (Analyze builds it).
func New(cfg config.Config, tr *trace.Trace) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(tr.Entries) > 0 && tr.Prog == nil {
		return nil, fmt.Errorf("core: trace of %d entries has no program", len(tr.Entries))
	}
	if len(tr.Seq) != trace.SeqBlocks(len(tr.Entries)) {
		return nil, fmt.Errorf("core: trace of %d entries has %d index blocks (not analyzed)", len(tr.Entries), len(tr.Seq))
	}
	if tr.InitMem == nil {
		tr.InitMem = mem.NewImage()
	}
	c := &Core{
		cfg:   cfg,
		tr:    tr,
		hier:  cache.NewHierarchy(cfg.Hierarchy),
		tlb:   tlb.New(cfg.TLB),
		bp:    bpred.New(cfg.BPred),
		tssbf: memdep.NewTSSBF(cfg.TSSBF),
		sdp:   newDistancePredictor(cfg),
		sets:  memdep.NewStoreSets(cfg.SSITEntries, cfg.StoreSetCount),
		image: tr.InitMem.Clone(),
		rf:    newRegFile(cfg.PhysRegs),
		rob:   newRobQ(cfg.ROBSize),
		sb:    newStoreBuffer(cfg.StoreBufferSize, cfg.Consistency == config.RMO),
		srb:   newStoreRegBuffer(cfg.ROBSize + cfg.StoreBufferSize + 2),
		fq:    make([]fetchEntry, fqCap),
	}
	if tr.Prog != nil {
		c.dec, c.textBase = decodeProgram(tr.Prog), tr.Prog.TextBase
	}
	n := nextPow2(cfg.ROBSize + 1)
	c.instBySeq = make([]*inst, n)
	c.instSeqMask = int64(n - 1)
	if cfg.Model == config.FnF {
		c.sft = memdep.NewSFT(memdep.DefaultFnFConfig())
		c.pendingFwd = newFwdRing(cfg.ROBSize + int(cfg.MaxDist()) + 2)
	}
	if cfg.Faults.Enabled() {
		c.inj = faults.NewInjector(cfg.Faults)
	}
	c.ffEnabled = !cfg.DisableFastForward && c.inj == nil
	return c, nil
}

// Run simulates the whole trace and returns the statistics.
func (c *Core) Run() (*Stats, error) { return c.RunContext(context.Background()) }

// cancelPollInterval is how many cycle-loop iterations RunContext steps
// between context polls and progress callbacks. Polling is off the hot
// path (one counter increment per iteration; the channel read only every
// interval), so cancellation support costs nothing measurable and does
// not perturb simulation state: statistics are byte-identical with or
// without a deadline, as long as it does not fire.
const cancelPollInterval = 4096

// RunContext simulates the whole trace, aborting with a structured
// ErrCanceled SimError when ctx is cancelled or its deadline passes.
// Cancellation is polled every cancelPollInterval loop iterations, so a
// fired deadline surfaces within microseconds of wall clock, never
// mid-cycle: the returned SimError carries a consistent pipeline
// snapshot. A nil ctx behaves as context.Background().
//
// The returned Stats is a copy: holding it does not keep the core (its
// cache arrays, memory image and pools) reachable.
func (c *Core) RunContext(ctx context.Context) (*Stats, error) {
	if len(c.tr.Entries) == 0 {
		st := c.stats
		return &st, nil
	}
	start := time.Now()
	window := c.cfg.Watchdog.NoRetireWindow
	if window <= 0 {
		window = config.DefaultNoRetireWindow
	}
	maxCycles := c.cfg.Watchdog.MaxCycles
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	poll := 0
	for !c.done {
		c.step(window, maxCycles)
		if poll++; poll >= cancelPollInterval {
			poll = 0
			if done != nil {
				select {
				case <-done:
					c.fail(&SimError{Kind: ErrCanceled, Idx: -1,
						Msg: fmt.Sprintf("run cancelled: %v (retired %d/%d)", ctx.Err(), c.retired, len(c.tr.Entries))})
				default:
				}
			}
			if c.progressFn != nil {
				c.progressFn(c.retired, c.now)
			}
		}
	}
	if c.simErr != nil {
		return nil, c.simErr
	}
	if c.inj != nil {
		c.stats.Faults = c.inj.Counts
	}
	c.stats.Cycles = c.now - c.cycleBase
	c.stats.L1MissRate = c.hier.L1D.MissRate()
	if a := c.hier.L1D.Accesses - c.warmL1A; a > 0 && c.cfg.WarmupInstructions > 0 {
		c.stats.L1MissRate = float64(c.hier.L1D.Misses-c.warmL1M) / float64(a)
	}
	c.stats.L2MissRate = c.hier.L2.MissRate()
	c.stats.L2Accesses = c.hier.L2.Accesses
	c.stats.DRAMAccesses = c.hier.DRAM.Reads + c.hier.DRAM.Writes
	c.stats.TLBAccesses = c.tlb.Accesses
	c.stats.SimWallClockNS = time.Since(start).Nanoseconds()
	st := c.stats
	return &st, nil
}

// SetProgressFn registers fn to observe simulation progress (retired
// instructions, current cycle) from the cycle loop, sampled every
// cancelPollInterval iterations. Call before Run; fn runs on the
// simulating goroutine and must be fast. A nil fn detaches.
func (c *Core) SetProgressFn(fn func(retired, cycles int64)) { c.progressFn = fn }

// step advances the simulation by one cycle: the body of Run's loop,
// split out so the allocation-regression guard can measure a single
// steady-state cycle.
func (c *Core) step(window, maxCycles int64) {
	c.now++
	c.progress = false
	c.commitStores()
	c.handleEvents()
	c.retire()
	c.issue()
	c.rename()
	c.fetch()

	if maxCycles > 0 && c.now >= maxCycles {
		c.fail(&SimError{Kind: ErrWatchdog, Idx: -1,
			Msg: fmt.Sprintf("cycle budget %d exhausted (retired %d/%d)", maxCycles, c.retired, len(c.tr.Entries))})
	}
	if c.now-c.lastRetireAt > window {
		c.fail(&SimError{Kind: ErrWatchdog, Idx: -1,
			Msg: fmt.Sprintf("no retirement for %d cycles: deadlock (retired %d/%d)", window, c.retired, len(c.tr.Entries))})
	}
	if !c.progress {
		c.fastForward(window, maxCycles)
	}
}

// fastForward jumps over provably empty cycles. It runs only after a
// cycle in which no pipeline stage changed any state (nothing committed,
// completed, retired, issued, renamed or fetched): everything left in
// flight is waiting on a known future cycle, so the simulation state at
// every intermediate cycle is identical to the current one and stepping
// through them one by one would only burn host time. The core jumps to
// one cycle before the earliest deadline — the next completion event,
// store write-back, front-end resume, re-execution finish or watchdog
// expiry — and credits the per-cycle stall counters (fetch stall,
// re-execution stall, store-buffer-full stall) for the skipped cycles
// exactly as stepping would have. Statistics are therefore bit-identical
// with the switch on or off (TestFastForwardEquivalence).
func (c *Core) fastForward(window, maxCycles int64) {
	if !c.ffEnabled || c.done || c.simErr != nil || c.ready.Len() > 0 {
		return
	}
	deadline := int64(-1)
	add := func(t int64) {
		if t > c.now && (deadline < 0 || t < deadline) {
			deadline = t
		}
	}
	if t := c.events.nextAt(); t >= 0 {
		add(t)
	}
	for i := range c.sb.entries {
		if e := &c.sb.entries[i]; e.issued {
			add(e.doneAt)
		}
	}
	if c.fetchIdx < len(c.tr.Entries) && !c.fetchStalled {
		add(c.fetchResumeAt)
	}
	if c.fqLen > 0 {
		add(c.fq[c.fqHead].readyAt)
	}
	var head *inst
	if !c.rob.empty() {
		head = c.rob.front()
		if head.reexecAt > 0 {
			add(head.reexecAt)
		}
	}
	if maxCycles > 0 {
		add(maxCycles)
	}
	add(c.lastRetireAt + window + 1)

	skipped := deadline - c.now - 1
	if skipped <= 0 {
		return
	}
	// The skipped cycles would each have ticked the same per-cycle stall
	// counters this (stateless) cycle ticked: the conditions below are
	// all functions of state that cannot change before the deadline.
	if c.fetchIdx < len(c.tr.Entries) && (c.fetchStalled || c.now < c.fetchResumeAt) {
		c.stats.FetchStallCycles += skipped
	}
	if head != nil && head.complete() {
		switch {
		case head.isLoad() && head.needReexec && (!c.sb.empty() || c.now < head.reexecAt):
			c.stats.ReexecStallCycle += skipped
		case head.isStore() && c.sb.full():
			c.stats.SBFullStall += skipped
		}
	}
	c.now = deadline - 1
}

// instBySeqGet returns the in-flight store with dynamic number seq, or
// nil (retired, flushed, or overwritten by a younger store).
func (c *Core) instBySeqGet(seq int64) *inst {
	if in := c.instBySeq[seq&c.instSeqMask]; in != nil && in.seq == seq {
		return in
	}
	return nil
}

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// CheckInvariants validates internal consistency (used by tests).
func (c *Core) CheckInvariants() error { return c.rf.checkInvariants() }

// newDistancePredictor picks the configured store distance predictor.
func newDistancePredictor(cfg config.Config) memdep.DistancePredictor {
	if cfg.UseTAGE {
		return memdep.NewTAGESDP(memdep.DefaultTAGEConfig(cfg.SDP.Biased))
	}
	return memdep.NewSDP(cfg.SDP)
}

// ---------- store commit ----------

// commitStores advances the store buffer: completes finished cache writes
// (applying their bytes to the committed image and publishing SSNcommit)
// and issues new ones through a pipelined write port (one issue per
// cycle). TSO completes strictly in order (a younger store's write
// becomes visible no earlier than its elders), with consecutive
// same-word coalescing; RMO may issue any entry whose word has no older
// pending write and completes in any order, with SSNcommit trailing the
// oldest uncommitted store.
func (c *Core) commitStores() {
	// Complete finished writes.
	if c.cfg.Consistency == config.TSO {
		for len(c.sb.entries) > 0 {
			head := &c.sb.entries[0]
			if !head.issued || head.doneAt > c.now {
				break
			}
			c.finishCommit(0)
		}
	} else {
		for {
			progressed := false
			for i := 0; i < len(c.sb.entries); i++ {
				e := &c.sb.entries[i]
				if e.issued && e.doneAt <= c.now {
					c.finishCommit(i)
					progressed = true
					break
				}
			}
			if !progressed {
				break
			}
		}
	}

	// Issue one new commit per cycle (pipelined write port).
	if c.sb.empty() {
		return
	}
	if c.cfg.Consistency == config.TSO {
		var lastDone int64
		for i := 0; i < len(c.sb.entries); i++ {
			e := &c.sb.entries[i]
			if e.issued {
				if e.doneAt > lastDone {
					lastDone = e.doneAt
				}
				continue
			}
			if !c.rf.regs[e.dataPhys].ready {
				return
			}
			c.progress = true
			done := c.hier.Access(c.now, e.addr, true)
			// Enforce in-order visibility behind older stores.
			if done <= lastDone {
				done = lastDone + 1
			}
			e.issued = true
			e.doneAt = done
			if c.cfg.StoreCoalescing {
				// Consecutive stores to the same word ride along.
				for j := i + 1; j < len(c.sb.entries); j++ {
					n := &c.sb.entries[j]
					if n.addr&^3 != e.addr&^3 || !c.rf.regs[n.dataPhys].ready {
						break
					}
					n.issued = true
					n.doneAt = done
					n.coalescedWith = i
					c.stats.StoresCoalesced++
				}
			}
			return
		}
		return
	}
	// RMO: issue the oldest unissued entry whose word has no older
	// pending write (one issue per cycle).
	for i := range c.sb.entries {
		e := &c.sb.entries[i]
		if e.issued || !c.rf.regs[e.dataPhys].ready {
			continue
		}
		if c.sb.hasOlderSameWord(i) {
			continue
		}
		c.progress = true
		e.issued = true
		e.doneAt = c.hier.Access(c.now, e.addr, true)
		break
	}
}

// finishCommit applies entry i's bytes, releases its registers and
// advances SSNcommit.
func (c *Core) finishCommit(i int) {
	c.progress = true
	e := &c.sb.entries[i]
	ssn := e.ssn
	c.image.Write(e.addr, e.size, e.value)
	if c.drainHook != nil {
		c.drainHook(e)
	}
	c.rf.dropConsumer(e.dataPhys)
	c.rf.dropConsumer(e.addrPhys)
	c.checkRefs(e.idx)
	c.srb.remove(ssn)
	c.sb.entries = append(c.sb.entries[:i], c.sb.entries[i+1:]...) // e is invalid from here on
	c.stats.StoresCommitted++

	var newCommit int64
	if c.cfg.Consistency == config.TSO {
		newCommit = ssn
	} else {
		// RMO: SSNcommit trails the oldest store still pending. Every
		// retired store passes through the buffer, so when it drains,
		// everything up to SSNretire has committed.
		newCommit = c.sb.oldestUncommittedSSN(c.ssn.Retire)
		if newCommit < c.ssn.Commit {
			newCommit = c.ssn.Commit
		}
	}
	if newCommit > c.ssn.Commit {
		c.ssn.Commit = newCommit
		c.wakeDelayed()
	}
}

// wakeDelayed re-activates parked uops whose SSNcommit gate opened.
func (c *Core) wakeDelayed() {
	kept := c.delayed[:0]
	for _, u := range c.delayed {
		if c.ssn.Commit >= u.gateSSN {
			c.ready.push(u)
		} else {
			kept = append(kept, u)
		}
	}
	c.delayed = kept
}

// ---------- events / writeback ----------

func (c *Core) handleEvents() {
	for c.simErr == nil {
		u := c.events.popDue(c.now)
		if u == nil {
			return
		}
		c.progress = true
		c.completeUop(u)
	}
}

// writeback publishes a register value and wakes its waiters.
func (c *Core) writeback(p int) {
	if p < 0 {
		return
	}
	c.stats.RegWrites++
	for _, w := range c.rf.setReady(p) {
		w.waitCnt--
		c.stats.IQWakeups++
		if w.waitCnt == 0 {
			c.dispatchReady(w)
		}
	}
}

// dispatchReady routes a uop whose operands are all ready: through its
// gate (delayed-load structure, store-set wait) or into the ready queue;
// zero-cost bookkeeping uops (cloak trackers) complete immediately.
func (c *Core) dispatchReady(u *uop) {
	if u.kind == uopCloakTrack {
		c.completeUop(u)
		return
	}
	switch u.gate {
	case gateSSNCommit:
		if c.ssn.Commit >= u.gateSSN {
			c.ready.push(u)
			return
		}
		// Parked loads leave the IQ for the (unlimited) delayed-load
		// structure (paper §V: NoSQ's delayed-load storage).
		c.leaveIQ(u)
		c.delayed = append(c.delayed, u)
	case gateStoreExec:
		// A gating store that is no longer in flight has retired, and a
		// retired store has long resolved its address.
		st := c.instBySeqGet(u.gateSeq)
		if st == nil || st.addrReady {
			c.ready.push(u)
			return
		}
		st.execWaiters = append(st.execWaiters, u)
	default:
		c.ready.push(u)
	}
}

// completeUop handles a finished micro-operation.
func (c *Core) completeUop(u *uop) {
	if u.done {
		return
	}
	u.done = true
	in := u.inst

	switch u.kind {
	case uopALU:
		c.writeback(u.dst)
	case uopBranch:
		c.writeback(u.dst)
		if c.fetchStalled && c.blockSeq == in.seq {
			c.fetchStalled = false
			c.blockSeq = 0
			c.fetchResumeAt = c.now + c.cfg.RedirectPenalty
		}
	case uopAGI:
		in.addrReady = true
		c.writeback(u.dst)
		if in.isStore() {
			c.sets.StoreExecuted(in.e.PC, in.seq)
			for _, w := range in.execWaiters {
				c.ready.push(w)
			}
			in.execWaiters = in.execWaiters[:0]
			if c.cfg.Model == config.Baseline {
				c.checkViolations(in)
			}
		}
	case uopLoad:
		c.completeLoadAccess(u)
	case uopCMP:
		c.completeCMP(u)
	case uopCMOV:
		c.completeCMOV(u)
	case uopCloakTrack:
		// The predicted store's data register is ready: the cloaked
		// load's value is available now.
		in.valueAt = c.now
	}

	in.pending--
	if in.pending == 0 {
		in.completedAt = c.now
	}
}

// ---------- issue ----------

func (c *Core) issue() {
	issued := 0
	loadPorts := 0
	stash := c.stash[:0]
	for issued < c.cfg.IssueWidth && c.ready.Len() > 0 {
		u := c.ready.pop()
		if u.kind == uopLoad && loadPorts >= c.cfg.LoadPorts {
			stash = append(stash, u)
			continue
		}
		if u.kind == uopALU {
			switch u.class {
			case isa.ClassDiv:
				if c.divBusyUntil > c.now {
					stash = append(stash, u)
					continue
				}
			case isa.ClassFPDiv:
				if c.fpDivBusyUntil > c.now {
					stash = append(stash, u)
					continue
				}
			}
		}
		replayed := c.issueUop(u)
		if u.kind == uopLoad {
			loadPorts++
		}
		issued++
		if replayed {
			continue
		}
	}
	for _, u := range stash {
		c.ready.push(u)
	}
	c.stash = stash
}

// leaveIQ releases u's issue queue slot (idempotent).
func (c *Core) leaveIQ(u *uop) {
	if u.counted {
		u.counted = false
		c.iqCount--
	}
}

// issueUop begins execution; returns true when the uop re-gated itself
// (baseline loads discovering an unready forwarder).
func (c *Core) issueUop(u *uop) bool {
	c.progress = true
	in := u.inst
	c.leaveIQ(u)
	c.stats.RegReads += int64(u.nsrc)

	switch u.kind {
	case uopLoad:
		return c.issueLoad(u)
	case uopAGI:
		lat := c.cfg.AGILat + c.tlb.Translate(in.e.Addr)
		u.issued = true
		c.events.schedule(c.now+lat, u)
	case uopALU, uopBranch:
		lat := c.latencyFor(u)
		u.issued = true
		c.events.schedule(c.now+lat, u)
	case uopCMP, uopCMOV:
		u.issued = true
		c.events.schedule(c.now+1, u)
	}
	return false
}

func (c *Core) latencyFor(u *uop) int64 {
	switch u.class {
	case isa.ClassMul:
		return c.cfg.MulLat
	case isa.ClassDiv:
		c.divBusyUntil = c.now + c.cfg.DivLat
		return c.cfg.DivLat
	case isa.ClassFP:
		return c.cfg.FPLat
	case isa.ClassFPDiv:
		c.fpDivBusyUntil = c.now + c.cfg.FPDivLat
		return c.cfg.FPDivLat
	case isa.ClassBranch:
		return c.cfg.BranchLat
	default:
		return c.cfg.ALULat
	}
}

// ---------- rename ----------

// spaceFor conservatively checks resources for one instruction (worst
// case: a predicated load = 5 uops, 4 fresh registers).
func (c *Core) spaceFor() bool {
	return !c.rob.full() &&
		c.rf.freeCount() >= 6 &&
		c.iqCount+5 <= c.cfg.IQSize
}

func (c *Core) rename() {
	for n := 0; n < c.cfg.RenameWidth; n++ {
		if c.fqLen == 0 || c.simErr != nil {
			return
		}
		fe := c.fq[c.fqHead]
		if fe.readyAt > c.now || !c.spaceFor() {
			return
		}
		c.fqHead = (c.fqHead + 1) & (fqCap - 1)
		c.fqLen--
		in := c.renameOne(fe.idx, fe.hist)
		if in == nil {
			return // desync: the run has failed
		}
		if fe.blocking {
			c.blockSeq = in.seq
			// If the blocking op completed already (e.g. a no-uop
			// jump), unblock immediately.
			if in.pending == 0 && c.fetchStalled {
				c.fetchStalled = false
				c.blockSeq = 0
				c.fetchResumeAt = c.now + c.cfg.RedirectPenalty
			}
		}
	}
}

// newUop claims in's next inline uop slot, wiring operand wakeup.
func (c *Core) newUop(in *inst, kind uopKind, class isa.Class, srcs []int, dst int) *uop {
	c.uopSeq++
	u := &in.uops[in.nUops]
	in.nUops++
	// Field by field: the slot holds a previous incarnation's uop, and
	// one composite-literal store would build and copy a whole temporary.
	u.kind, u.class, u.inst, u.seq, u.dst = kind, class, in, c.uopSeq, dst
	u.nsrc, u.waitCnt = 0, 0
	u.gate, u.gateSSN, u.gateSeq = gateNone, 0, 0
	u.counted, u.cmovSel, u.issued, u.done = false, false, false, false
	for _, s := range srcs {
		if s >= 0 {
			u.nsrc++
			if c.rf.await(s, u) {
				u.waitCnt++
			}
		}
	}
	in.pending++
	if kind != uopCloakTrack {
		u.counted = true
		c.iqCount++
		c.stats.IQInserts++
	}
	return u
}

// finishUopSetup routes a fresh uop whose operands may already be ready.
func (c *Core) finishUopSetup(u *uop) {
	if u.waitCnt == 0 {
		c.dispatchReady(u)
	}
}

// mapDest allocates and maps a destination register.
func (c *Core) mapDest(in *inst, l isa.Reg) int {
	p := c.rf.alloc()
	c.rf.rat[l] = p
	if in.destLog < 0 && !isHardwareReg(l) {
		in.destLog = int(l)
		in.destPhys = p
	} else {
		in.auxLog = append(in.auxLog, int(l))
		in.auxPhys = append(in.auxPhys, p)
	}
	return p
}

func isHardwareReg(l isa.Reg) bool { return l >= isa.HwAddr }

// mapAux maps a hardware-only logical register.
func (c *Core) mapAux(in *inst, l isa.Reg) int {
	p := c.rf.alloc()
	c.rf.rat[l] = p
	in.auxLog = append(in.auxLog, int(l))
	in.auxPhys = append(in.auxPhys, p)
	return p
}

// renameOne renames trace entry idx, or fails the run with ErrDesync and
// returns nil when the entry does not match the program.
func (c *Core) renameOne(idx int, hist uint32) *inst {
	c.progress = true
	e := &c.tr.Entries[idx]
	d := c.decode(e)
	if d == nil {
		c.fail(&SimError{
			Kind: ErrDesync, Idx: idx, PC: e.PC, Disasm: c.disasm(e),
			Msg: fmt.Sprintf("trace entry %s at pc 0x%08x has no matching program instruction", e.Op, e.PC),
		})
		return nil
	}
	c.seqCounter++
	// Build the instruction in the ROB's free tail slot; the previous
	// occupant's state goes, its uops are re-initialised by newUop.
	in := c.rob.next()
	in.instState = instState{}
	in.auxLog, in.auxPhys = in.auxLog[:0], in.auxPhys[:0]
	in.execWaiters = in.execWaiters[:0]
	in.idx = idx
	in.e = e
	in.d = d
	in.seq = c.seqCounter
	in.renamedAt = c.now
	in.destLog = -1
	in.destPhys = -1
	in.predIdx = -1
	in.forwardIdx = -1
	in.histAtRen = hist
	c.stats.ROBWrites++
	op := e.Op
	in.class = d.class

	switch {
	case op == isa.OpNOP || op == isa.OpHALT || op == isa.OpJ:
		in.completedAt = c.now
	case op == isa.OpJAL:
		dst := c.mapDest(in, isa.RA)
		u := c.newUop(in, uopALU, isa.ClassALU, nil, dst)
		c.finishUopSetup(u)
	case in.class == isa.ClassLoad:
		c.renameLoad(in)
	case in.class == isa.ClassStore:
		c.renameStore(in)
	case in.class == isa.ClassBranch: // conditional branches, JR, JALR
		var srcs [2]int
		n := c.srcPhys(d, &srcs)
		dst := -1
		if op == isa.OpJALR && d.dest != isa.NoReg {
			dst = c.mapDest(in, d.dest)
		}
		u := c.newUop(in, uopBranch, isa.ClassBranch, srcs[:n], dst)
		c.finishUopSetup(u)
	default:
		var srcs [2]int
		n := c.srcPhys(d, &srcs)
		dst := -1
		if d.dest != isa.NoReg {
			dst = c.mapDest(in, d.dest)
		}
		u := c.newUop(in, uopALU, in.class, srcs[:n], dst)
		c.finishUopSetup(u)
	}

	c.rob.push()
	return in
}

// srcPhys maps an instruction's logical sources through the RAT into
// the caller's srcs and returns how many there are. Returning the array
// by value would copy it out with a wide load that store-to-load
// forwarding cannot serve from the narrow element stores.
func (c *Core) srcPhys(d *decoded, srcs *[2]int) int {
	n := int(d.nsrc)
	for k := 0; k < n; k++ {
		srcs[k] = c.rf.rat[d.srcs[k]]
	}
	return n
}

// ---------- fetch ----------

func (c *Core) fetch() {
	if c.fetchIdx >= len(c.tr.Entries) {
		return
	}
	if c.fetchStalled || c.now < c.fetchResumeAt {
		c.stats.FetchStallCycles++
		return
	}
	for n := 0; n < c.cfg.FetchWidth && c.fqLen < fqCap && c.fetchIdx < len(c.tr.Entries); n++ {
		idx := c.fetchIdx
		e := &c.tr.Entries[idx]
		fe := fetchEntry{idx: idx, readyAt: c.now + c.cfg.FrontEndDepth, hist: c.bp.History()}
		c.fetchIdx++
		if e.Op.IsControl() {
			correct := c.bp.PredictAndTrain(e.PC, e.Op, e.Taken(), e.Target)
			if !correct {
				c.stats.BranchMispredicts++
				fe.blocking = true
				c.fqPush(fe)
				c.fetchStalled = true
				c.fetchBlockIdx = idx
				return
			}
		}
		c.fqPush(fe)
	}
}

func (c *Core) fqPush(fe fetchEntry) {
	c.progress = true
	c.fq[(c.fqHead+c.fqLen)&(fqCap-1)] = fe
	c.fqLen++
}

// ---------- retire ----------

func (c *Core) retire() {
	for budget := c.cfg.RetireWidth; budget > 0 && !c.rob.empty(); budget-- {
		in := c.rob.front()
		if !in.complete() {
			return
		}

		if in.isLoad() {
			switch c.verifyLoad(in) {
			case verifyStall:
				return
			case verifyRecoverReplay:
				// Baseline ordering violation: the load itself
				// re-executes; flush everything including it.
				c.flush(in.idx)
				return
			}
		}

		if in.isStore() {
			if c.sb.full() {
				c.stats.SBFullStall++
				return
			}
			c.retireStore(in)
		}

		c.retireCommon(in)
		c.rob.popFront()

		if in.recoverAfter {
			// Memory dependence exception: flush everything younger
			// and refetch after the (now corrected) load.
			c.flush(in.idx + 1)
			return
		}
		if c.done {
			return
		}
	}
}

func (c *Core) retireStore(in *inst) {
	e := in.e
	c.ssn.Retire = in.ssn
	c.sb.push(sbEntry{
		ssn:      in.ssn,
		idx:      in.idx,
		addr:     e.Addr,
		size:     uint32(e.Size),
		value:    e.Value,
		dataPhys: in.dataPhys,
		addrPhys: in.addrPhys,
	})
	if c.cfg.Model != config.Baseline {
		c.tssbf.Insert(e.WordAddr(), e.BAB(), in.ssn)
		c.stats.TSSBFWrites++
	}
	c.srb.markRetired(in.ssn)
	if i := in.seq & c.instSeqMask; c.instBySeq[i] == in {
		c.instBySeq[i] = nil
	}
}

// retireCommon updates architectural rename state, releases registers and
// accounts statistics.
func (c *Core) retireCommon(in *inst) {
	c.progress = true
	if in.destLog >= 0 {
		old := c.rf.arat[in.destLog]
		c.rf.arat[in.destLog] = in.destPhys
		c.rf.dropProducer(old)
	}
	for i, l := range in.auxLog {
		old := c.rf.arat[l]
		c.rf.arat[l] = in.auxPhys[i]
		c.rf.dropProducer(old)
	}

	c.retired++
	c.lastRetireAt = c.now
	if c.inj != nil && in.isLoad() && c.inj.CorruptValue() {
		// Injected architectural corruption: the lockstep hook (if
		// attached) and the oracle below must catch it.
		in.gotValue ^= 0x8000_0001
	}
	c.recordRetire(in)
	// External commit-stream observer (difftest lockstep) sees the
	// retirement first, then the built-in commit-time oracle: the
	// verification machinery must never let a wrong architectural
	// effect retire.
	c.notifyCommit(in)
	c.oracleRetireCheck(in)
	c.checkRefs(in.idx)
	if c.tracer != nil {
		c.tracer.onRetire(in, c.now)
	}
	if c.cfg.WarmupInstructions > 0 && c.retired == c.cfg.WarmupInstructions {
		// End of warmup: structures stay warm, counters restart. The
		// boundary instruction itself is not measured.
		oracleChecks := c.stats.OracleChecks
		c.stats = Stats{}
		c.stats.OracleChecks = oracleChecks // soundness coverage is not a warmup metric
		c.cycleBase = c.now
		c.warmL1A, c.warmL1M = c.hier.L1D.Accesses, c.hier.L1D.Misses
		if in.isLoad() {
			c.lsnRetire++
		}
	} else {
		c.stats.Instructions++
		n := int64(in.nUops)
		if n == 0 {
			n = 1
		}
		c.stats.Uops += n

		if in.isLoad() {
			c.lsnRetire++
			c.accountLoad(in)
		}
	}

	if in.e.Op == isa.OpHALT || c.retired == int64(len(c.tr.Entries)) {
		c.done = true
	}
}

func (c *Core) accountLoad(in *inst) {
	c.stats.LoadCount[in.cat]++
	t := in.valueAt - in.renamedAt
	if t < 0 {
		t = 0
	}
	c.stats.LoadExecTime[in.cat] += t
	c.stats.LoadLatency[latencyBucket(t)]++
	if in.lowConf {
		c.stats.LowConfCount++
		c.stats.LowConfExecTime += t
		switch {
		case !in.actualInFly:
			c.stats.LowConfOutcomes[LowConfIndepStore]++
		case int64(in.e.DepStore) == in.ssnByp:
			c.stats.LowConfOutcomes[LowConfCorrect]++
		default:
			c.stats.LowConfOutcomes[LowConfDiffStore]++
		}
	}
}

// ---------- recovery ----------

// flush squashes every in-flight instruction, restores the rename state
// from the architectural map (the paper recovers the reference counters by
// walking the squashed instructions; restoring from the ARAT plus the
// surviving store buffer references is equivalent at a full-window flush)
// and refetches from refetchIdx.
func (c *Core) flush(refetchIdx int) {
	c.progress = true
	// A flush squashes the whole window, so every reference to an
	// in-flight instruction dies with it: the ready queue, delayed-load
	// structure, event wheel and register waiter lists hold only stale
	// entries afterwards and are cleared below (resetToARAT empties the
	// waiter lists), and rename reuses the slots from the start.
	for i := 0; i < c.rob.len(); i++ {
		in := c.rob.at(i)
		if c.tracer != nil {
			c.tracer.onSquash(in.idx)
		}
		for k := range in.uops[:in.nUops] {
			if !in.uops[k].done {
				c.stats.SquashedUops++
			}
		}
	}
	c.rob.clear()
	c.iqCount = 0
	c.ready = c.ready[:0]
	c.delayed = c.delayed[:0]
	c.events.reset()

	c.ssn.Rename = c.ssn.Retire
	c.lsnRename = c.lsnRetire
	c.srb.dropYoungerThan(c.ssn.Retire)
	for i := range c.instBySeq {
		c.instBySeq[i] = nil
	}
	c.sets.Invalidate(0) // all tracked stores were in flight: clear LFST

	c.sbRefBuf = c.sb.regRefs(c.sbRefBuf[:0])
	c.rf.resetToARAT(c.sbRefBuf)

	c.fqHead, c.fqLen = 0, 0
	c.fetchIdx = refetchIdx
	c.fetchStalled = false
	c.blockSeq = 0
	c.fetchResumeAt = c.now + c.cfg.RecoveryPenalty
}
