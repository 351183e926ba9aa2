package core

import (
	"fmt"

	"dmdp/internal/config"
	"dmdp/internal/isa"
	"dmdp/internal/memdep"
	"dmdp/internal/trace"
)

// This file holds the store-load communication logic of the four models:
// rename-time decisions (direct / cloak / delay / predicate / store-set
// scheduling), load issue (including the baseline's store queue search),
// access completion, the predication MicroOps, the baseline's ordering
// violation detection and the retire-stage SVW verification with its
// predictor training (including the silent-store-aware update policy).

// ---------- rename: stores ----------

func (c *Core) renameStore(in *inst) {
	e := in.e
	// The data register is read at commit: extend its lifetime.
	in.dataPhys = c.rf.rat[in.d.instr.Rt]
	c.rf.addConsumer(in.dataPhys)
	// Crack: AGI computes (and translates) the address into a dedicated
	// physical register, also read at commit.
	base := c.rf.rat[in.d.instr.Rs]
	in.addrPhys = c.mapAux(in, isa.HwAddr)
	c.rf.addConsumer(in.addrPhys)
	agi := c.newUop(in, uopAGI, isa.ClassALU, []int{base}, in.addrPhys)

	c.ssn.Rename++
	in.ssn = c.ssn.Rename
	if want := c.tr.StoreSeq(in.idx); in.ssn != want {
		c.fail(&SimError{
			Kind: ErrDesync, Idx: in.idx, PC: e.PC, Disasm: in.d.instr.String(),
			Msg: fmt.Sprintf("SSN desync: renamed store got %d, trace says %d", in.ssn, want),
		})
	}
	c.srb.add(srbEntry{ssn: in.ssn, idx: in.idx, dataPhys: in.dataPhys, addrPhys: in.addrPhys, inst: in})
	c.instBySeq[in.seq&c.instSeqMask] = in

	switch c.cfg.Model {
	case config.Baseline:
		// Store Sets also serialize the stores of a set: this store's
		// address generation waits for the previous store in its set
		// (Chrysos & Emer's in-order store-set execution rule).
		if prevSeq := c.sets.StoreRenamed(e.PC, in.seq); prevSeq != 0 {
			if prev := c.instBySeqGet(prevSeq); prev != nil && !prev.addrReady {
				agi.gate = gateStoreExec
				agi.gateSeq = prev.seq
			}
		}
	case config.FnF:
		c.renameStoreFnF(in)
	}
	c.finishUopSetup(agi)
}

// ---------- rename: loads ----------

func (c *Core) renameLoad(in *inst) {
	e := in.e
	base := c.rf.rat[in.d.instr.Rs]
	in.addrPhys = c.mapAux(in, isa.HwAddr)
	agi := c.newUop(in, uopAGI, isa.ClassALU, []int{base}, in.addrPhys)
	in.storesBefore = c.tr.StoresBefore(in.idx)
	in.actualInFly = e.DepStore > 0 && int64(e.DepStore) > c.ssn.Commit
	in.srcSSN = -1

	switch c.cfg.Model {
	case config.Perfect:
		c.renameLoadPerfect(in)
	case config.Baseline:
		c.renameLoadBaseline(in)
	case config.FnF:
		c.renameLoadFnF(in)
	default:
		c.renameLoadSQFree(in)
	}
	c.finishUopSetup(agi)
}

func (c *Core) renameLoadPerfect(in *inst) {
	e := in.e
	d := in.d.dest
	if d != isa.NoReg && in.actualInFly && e.DepOverlap == trace.OverlapFull {
		if se := c.srb.get(int64(e.DepStore)); se != nil {
			in.ssnByp = int64(e.DepStore)
			in.predIdx = se.idx
			c.setupCloak(in, d, se)
			return
		}
	}
	c.setupDirectLoad(in, d)
}

func (c *Core) renameLoadBaseline(in *inst) {
	e := in.e
	d := in.d.dest
	dst := -1
	if d != isa.NoReg {
		dst = c.mapDest(in, d)
	}
	in.cat = LoadDirect
	ld := c.newUop(in, uopLoad, isa.ClassLoad, []int{in.addrPhys}, dst)
	// Store Sets: the load may not issue before its set's last fetched
	// store resolves its address.
	if waitSeq := c.sets.LoadRenamed(e.PC); waitSeq != 0 {
		if st := c.instBySeqGet(waitSeq); st != nil && !st.addrReady {
			ld.gate = gateStoreExec
			ld.gateSeq = st.seq
		}
	}
	c.finishUopSetup(ld)
}

// renameLoadSQFree implements NoSQ and DMDP (paper Table I): consult the
// Store Distance Predictor; a confident prediction cloaks, a
// low-confidence one delays (NoSQ) or predicates (DMDP); everything else
// reads the cache directly.
func (c *Core) renameLoadSQFree(in *inst) {
	e := in.e
	d := in.d.dest
	pred, hit := c.sdp.Predict(e.PC, in.histAtRen)
	c.stats.SDPReads++
	if c.inj != nil && hit {
		// Benign faults: a perturbed distance targets the wrong store and
		// a demoted confidence forces the delay/predication path; the
		// SVW verification must absorb both.
		if c.inj.FlipPrediction() {
			pred.Dist++
		}
		if pred.Confident && c.inj.ForceLowConf() {
			pred.Confident = false
		}
	}

	var se *srbEntry
	if hit {
		in.usedDist = pred.Dist
		ssnByp := c.ssn.Rename - pred.Dist
		// Table I row 1: no dependence, or the store already committed
		// and updated the cache -> plain cache read.
		if ssnByp >= 1 && ssnByp > c.ssn.Commit {
			se = c.srb.get(ssnByp)
			if se != nil {
				in.ssnByp = ssnByp
				in.predIdx = se.idx
			}
		}
	}
	if se == nil || d == isa.NoReg {
		c.setupDirectLoad(in, d)
		return
	}

	partial := e.Size < 4
	confident := pred.Confident
	if c.cfg.Model == config.DMDP && partial {
		// Partial-word loads are prohibited from cloaking (alignment
		// and sign/zero extension); they are forced onto predication
		// (paper §IV-D).
		confident = false
	}
	if confident {
		c.setupCloak(in, d, se)
		return
	}
	in.lowConf = true
	if c.cfg.Model == config.NoSQ {
		c.setupDelayed(in, d)
	} else {
		c.setupPredicated(in, d, se)
	}
}

func (c *Core) setupDirectLoad(in *inst, d isa.Reg) {
	dst := -1
	if d != isa.NoReg {
		dst = c.mapDest(in, d)
	}
	in.cat = LoadDirect
	ld := c.newUop(in, uopLoad, isa.ClassLoad, []int{in.addrPhys}, dst)
	c.finishUopSetup(ld)
}

// setupCloak renames the load's destination onto the predicted store's
// data register (memory cloaking): the load never reads the cache.
func (c *Core) setupCloak(in *inst, d isa.Reg, se *srbEntry) {
	p := se.dataPhys
	c.rf.addProducer(p)
	c.rf.rat[d] = p
	in.destLog = int(d)
	in.destPhys = p
	in.cat = LoadBypass
	c.stats.Cloaks++
	in.gotValue = forwardValue(&c.tr.Entries[se.idx], in.e)
	in.readCache = false
	// Zero-cost tracker: the load's value is available when the store's
	// data register is (possibly before rename; execution time floors
	// at zero).
	track := c.newUop(in, uopCloakTrack, isa.ClassALU, []int{p}, -1)
	c.finishUopSetup(track)
}

// setupDelayed implements NoSQ's low-confidence handling: the load waits
// in the delayed-load structure until the predicted store commits, then
// reads the cache.
func (c *Core) setupDelayed(in *inst, d isa.Reg) {
	dst := c.mapDest(in, d)
	in.cat = LoadDelayed
	c.stats.DelayedLoads++
	ld := c.newUop(in, uopLoad, isa.ClassLoad, []int{in.addrPhys}, dst)
	ld.gate = gateSSNCommit
	ld.gateSSN = in.ssnByp
	c.finishUopSetup(ld)
}

// setupPredicated inserts the DMDP predication sequence (paper Fig. 8):
//
//	LD   tmp  <- (addr)            ; reads the cache
//	CMP  pred <- (addr == st.addr) ; carries shift/type information
//	CMOV dst  <- pred  ? st.data
//	CMOV dst  <- !pred ? tmp
//
// Both CMOVs share the destination register (producer count 2); the
// store's data and address registers gain consumers so they survive until
// the MicroOps read them.
func (c *Core) setupPredicated(in *inst, d isa.Reg, se *srbEntry) {
	tmp := c.mapAux(in, isa.HwTmp)
	prd := c.mapAux(in, isa.HwPred)
	dst := c.mapDest(in, d)
	c.rf.addProducer(dst) // second CMOV definition

	in.cat = LoadPredicated
	c.stats.Predications++
	in.predAddrPhys = se.addrPhys
	in.predDataPhys = se.dataPhys
	c.rf.addConsumer(se.addrPhys)
	c.rf.addConsumer(se.dataPhys)

	ld := c.newUop(in, uopLoad, isa.ClassLoad, []int{in.addrPhys}, tmp)
	cmp := c.newUop(in, uopCMP, isa.ClassALU, []int{in.addrPhys, se.addrPhys}, prd)
	cm1 := c.newUop(in, uopCMOV, isa.ClassALU, []int{prd, se.dataPhys}, dst)
	cm1.cmovSel = true
	cm2 := c.newUop(in, uopCMOV, isa.ClassALU, []int{prd, tmp}, dst)
	c.finishUopSetup(ld)
	c.finishUopSetup(cmp)
	c.finishUopSetup(cm1)
	c.finishUopSetup(cm2)
}

// ---------- issue: loads ----------

// issueLoad starts a load's memory access. Returns true when the uop
// re-gated itself instead of issuing (baseline replays).
func (c *Core) issueLoad(u *uop) bool {
	if c.cfg.Model == config.Baseline {
		return c.issueLoadBaseline(u)
	}
	in := u.inst
	u.issued = true
	c.stats.CacheAccesses++
	c.events.schedule(c.hier.Access(c.now, in.e.Addr, false), u)
	return false
}

// issueLoadBaseline searches the (conceptual) store queue and store
// buffer: the youngest older in-flight store with a resolved address and
// overlapping bytes forwards (constant SQAccessLat, like the paper's
// 4-cycle SQ/SB/cache access); partial overlap waits for that store to
// commit; no match reads the cache. Older stores with unresolved
// addresses are speculatively ignored — the violation check catches them.
func (c *Core) issueLoadBaseline(u *uop) bool {
	in := u.inst
	e := in.e
	c.stats.SQSearches++

	var found *srbEntry
	for ssn := in.storesBefore; ssn > c.ssn.Commit; ssn-- {
		se := c.srb.get(ssn)
		if se == nil {
			continue
		}
		if se.inst != nil && !se.inst.addrReady {
			continue // address unknown: speculate past it
		}
		st := &c.tr.Entries[se.idx]
		if st.WordAddr() == e.WordAddr() && st.BAB()&e.BAB() != 0 {
			found = se
			break
		}
	}
	if found == nil {
		u.issued = true
		c.stats.CacheAccesses++
		c.events.schedule(c.hier.Access(c.now, e.Addr, false), u)
		return false
	}
	st := &c.tr.Entries[found.idx]
	if st.BAB()&e.BAB() != e.BAB() {
		// Partial overlap: wait for the store to commit, then retry.
		u.gate = gateSSNCommit
		u.gateSSN = found.ssn
		c.delayed = append(c.delayed, u)
		return true
	}
	if found.inst != nil && !c.rf.regs[found.dataPhys].ready {
		// Forwarder's data not produced yet: replay when it is.
		u.waitCnt++
		c.rf.await(found.dataPhys, u)
		return true
	}
	// Forward from the SQ (in-ROB store) or SB (retired store).
	u.issued = true
	in.srcSSN = found.ssn
	in.forwardIdx = found.idx
	c.events.schedule(c.now+c.cfg.SQAccessLat, u)
	return false
}

// ---------- completion ----------

func (c *Core) readCacheValue(e *trace.Entry) uint32 {
	return trace.ExtendLoad(e.Op, c.image.Read(e.Addr, uint32(e.Size)))
}

func (c *Core) completeLoadAccess(u *uop) {
	in := u.inst
	e := in.e

	if in.cat == LoadPredicated {
		// The LD half of a predication: keep the cache value; the
		// selected CMOV publishes the final result.
		in.cacheValue = c.readCacheValue(e)
		in.ssnNvul = c.ssn.Commit
		c.writeback(u.dst)
		return
	}

	if in.forwardIdx >= 0 {
		// Baseline store-queue/store-buffer forwarding.
		in.gotValue = forwardValue(&c.tr.Entries[in.forwardIdx], e)
		in.readCache = false
	} else {
		in.gotValue = c.readCacheValue(e)
		in.readCache = true
		in.ssnNvul = c.ssn.Commit
		if in.srcSSN < 0 {
			in.srcSSN = c.ssn.Commit
		}
	}
	if c.cfg.Model == config.Perfect {
		in.gotValue = e.Value // oracle loads are never wrong
	}
	in.valueAt = c.now
	c.writeback(u.dst)
}

// completeCMP computes the predicate: the predicted store forwards iff
// its word address matches the load's and its byte-access bits cover the
// load's (the predicate also carries the shift amount and load type, so
// the CMOV can align and extend the operand — folded into forwardValue).
func (c *Core) completeCMP(u *uop) {
	in := u.inst
	st := &c.tr.Entries[in.predIdx]
	in.predicate = st.WordAddr() == in.e.WordAddr() && st.BAB()&in.e.BAB() == in.e.BAB()
	if c.inj != nil && c.inj.CorruptPredicate() {
		// Benign fault: the wrong CMOV arm publishes; retire-time
		// verification (or, failing that, the oracle) must catch it.
		in.predicate = !in.predicate
	}
	in.predicateDone = true
	c.rf.dropConsumer(in.predAddrPhys)
	c.checkRefs(in.idx)
	c.writeback(u.dst)
}

func (c *Core) completeCMOV(u *uop) {
	in := u.inst
	if !in.predicateDone {
		c.fail(&SimError{
			Kind: ErrDesync, Idx: in.idx, PC: in.e.PC, Disasm: in.d.instr.String(),
			Msg: "CMOV executed before its predicate",
		})
		return
	}
	if u.cmovSel {
		c.rf.dropConsumer(in.predDataPhys)
	}
	if u.cmovSel != in.predicate {
		// Predicate not set for this arm: treated as a NOP — no
		// register write, no broadcast — and its definition of the
		// shared destination evaporates (producer counter decrement,
		// paper §IV-B), otherwise the register would leak.
		c.rf.dropProducer(u.dst)
		c.checkRefs(in.idx)
		return
	}
	if in.predicate {
		in.gotValue = forwardValue(&c.tr.Entries[in.predIdx], in.e)
		in.readCache = false
	} else {
		in.gotValue = in.cacheValue
		in.readCache = true
	}
	in.valueAt = c.now
	c.writeback(u.dst)
}

// ---------- baseline ordering violations ----------

// checkViolations runs when a store's address resolves: any younger load
// that already obtained (or requested) its value from an older source
// missed this store and must re-execute — flagged here, recovered when it
// reaches the head (flush + refetch from the load). The store set
// predictor learns the pair.
func (c *Core) checkViolations(st *inst) {
	se := st.e
	for i := 0; i < c.rob.len(); i++ {
		l := c.rob.at(i)
		if l.seq <= st.seq || !l.isLoad() || l.violated {
			continue
		}
		le := l.e
		if le.WordAddr() != se.WordAddr() || le.BAB()&se.BAB() == 0 {
			continue
		}
		if l.storesBefore < st.ssn {
			continue // the store is younger in program order
		}
		issued := false
		for k := range l.uops[:l.nUops] {
			if lu := &l.uops[k]; lu.kind == uopLoad {
				issued = lu.issued
			}
		}
		if !issued {
			continue // will search again and see this store
		}
		if l.srcSSN >= st.ssn {
			continue // got data from this store or a younger one
		}
		l.violated = true
		c.stats.Violations++
		c.sets.OnViolation(le.PC, se.PC)
	}
}

// ---------- retire-time verification ----------

type verifyResult int

const (
	verifyOK verifyResult = iota
	verifyStall
	verifyRecoverReplay
)

// verifyLoad implements the retire-stage check. SQ-free models consult
// the T-SSBF under the SVW policy (paper Table II); a required
// re-execution waits for the store buffer to drain (stalling retirement)
// and raises an exception — full flush — when the reloaded value differs.
func (c *Core) verifyLoad(in *inst) verifyResult {
	switch c.cfg.Model {
	case config.Perfect:
		return verifyOK
	case config.Baseline:
		if in.violated {
			c.stats.DepMispredicts++
			return verifyRecoverReplay
		}
		return verifyOK
	}

	if !in.verifyChecked {
		in.verifyChecked = true
		c.progress = true
		ssn, tagMatch, covered := c.tssbf.LookupCovering(in.e.WordAddr(), in.e.BAB())
		c.stats.TSSBFReads++
		in.tssbfSSN, in.tssbfMatch = ssn, tagMatch
		if in.readCache {
			in.needReexec = memdep.NeedsReexecCacheSourced(ssn, in.ssnNvul)
		} else {
			in.needReexec = memdep.NeedsReexecStoreSourced(ssn, in.ssnByp) || !covered
		}
		if in.needReexec {
			c.stats.Reexecs++
		}
	}

	if in.needReexec {
		if !c.sb.empty() {
			c.stats.ReexecStallCycle++
			return verifyStall
		}
		if in.reexecAt == 0 {
			in.reexecAt = c.hier.Access(c.now, in.e.Addr, false)
			c.stats.CacheAccesses++
			c.progress = true
		}
		if c.now < in.reexecAt {
			c.stats.ReexecStallCycle++
			return verifyStall
		}
		// Re-execution done: the store buffer is drained, so the
		// reload yields the architectural value.
		exception := in.gotValue != in.e.Value
		if exception {
			c.stats.DepMispredicts++
			c.stats.DepMispredictsByCat[in.cat]++
			if c.onDepMispredict != nil {
				c.onDepMispredict(in)
			}
			in.recoverAfter = true
			in.gotValue = in.e.Value
		}
		// Silent-store-aware policy (paper §IV-C a): learn the observed
		// dependence on every re-execution. The original policy only
		// trains when the reloaded value differs (an exception) — the
		// paper compares both in §VI-a.
		if exception || c.cfg.SilentStoreAwareUpdate {
			if c.cfg.Model == config.FnF {
				c.trainFnFAfterReexec(in)
			} else {
				c.trainAfterReexec(in)
			}
		}
		in.needReexec = false
		in.didReexec = true
		return verifyOK
	}

	if c.cfg.Model == config.FnF {
		c.trainFnFNoReexec(in)
	} else {
		c.trainNoReexec(in)
	}
	return verifyOK
}

// trainAfterReexec applies the silent-store-aware update policy: the
// Store Distance Predictor learns the observed dependence on *every*
// re-execution, not only on exceptions (paper §IV-C a). When the actual
// distance is outside the predictor's 6-bit range but a prediction was
// used, the confidence still drops (the prediction was wrong).
func (c *Core) trainAfterReexec(in *inst) {
	actual := in.storesBefore - in.tssbfSSN
	switch {
	case in.tssbfMatch && actual >= 0 && actual <= c.cfg.MaxDist():
		// Evidence of a real collision (tag match): learn it.
		c.sdp.TrainWrong(in.e.PC, in.histAtRen, actual)
		c.stats.SDPWrites++
	case in.ssnByp > 0:
		// The re-execution came from the conservative fallback or an
		// out-of-range distance; a used prediction still loses
		// confidence.
		c.sdp.TrainWrong(in.e.PC, in.histAtRen, in.usedDist)
		c.stats.SDPWrites++
	}
}

// trainNoReexec updates the confidence of used predictions: correct when
// the actual colliding store (per T-SSBF) is the predicted one.
func (c *Core) trainNoReexec(in *inst) {
	if in.ssnByp == 0 {
		return
	}
	c.stats.SDPWrites++
	if in.tssbfSSN == in.ssnByp {
		c.sdp.TrainCorrect(in.e.PC, in.histAtRen, in.usedDist)
		return
	}
	actual := in.storesBefore - in.tssbfSSN
	if in.tssbfMatch && actual >= 0 && actual <= c.cfg.MaxDist() {
		c.sdp.TrainWrong(in.e.PC, in.histAtRen, actual)
	} else {
		c.sdp.TrainWrong(in.e.PC, in.histAtRen, in.usedDist)
	}
}
