package core

import (
	"fmt"

	"dmdp/internal/isa"
)

// Fire-and-Forget model (paper §VII; Subramaniam & Loh, MICRO 2006).
//
// Like NoSQ/DMDP, FnF has no store queue: stores execute at commit and
// verification happens at retire through the SVW/T-SSBF machinery. The
// difference is the direction of prediction: at rename a *store*
// consults the Store Forwarding Table for the load-distance of its
// predicted consumer and registers a pending forward on that load
// sequence number (LSN). When the load with that LSN renames, it is
// cloaked onto the store's data register. Loads that nobody targets read
// the cache directly — there is no load-side prediction, no delaying and
// no predication.
//
// Because the store cannot observe the branches *between* itself and its
// consumer, the prediction is inherently path-insensitive — the reason
// the paper builds on NoSQ instead (§VII). The alt-fnf experiment
// measures that gap on path-dependent workloads.

// fwdRing holds the pending store->load forwards keyed by target LSN.
// It replaces a map that leaked entries claimed across flushes: slot
// lsn&mask is validated against the stored LSN, and the live key span is
// bounded by ROB depth + the predictor's maximum load distance, so
// distinct live keys never collide.
type fwdRing struct {
	lsn  []int64 // 0 = empty
	ssn  []int64
	mask int64
}

func newFwdRing(span int) *fwdRing {
	n := 1
	for n < span {
		n <<= 1
	}
	return &fwdRing{lsn: make([]int64, n), ssn: make([]int64, n), mask: int64(n - 1)}
}

func (r *fwdRing) put(lsn, ssn int64) {
	i := lsn & r.mask
	r.lsn[i], r.ssn[i] = lsn, ssn
}

func (r *fwdRing) take(lsn int64) (int64, bool) {
	i := lsn & r.mask
	if r.lsn[i] != lsn {
		return 0, false
	}
	r.lsn[i] = 0
	return r.ssn[i], true
}

// renameStoreFnF runs after the common store rename work: consult the
// SFT and register a pending forward.
func (c *Core) renameStoreFnF(in *inst) {
	pred, ok := c.sft.Predict(in.e.PC)
	c.stats.SDPReads++
	if !ok || !pred.Confident {
		return
	}
	target := c.lsnRename + 1 + pred.LoadDist
	c.pendingFwd.put(target, in.ssn)
}

// renameLoadFnF claims a pending forward registered for this load's LSN,
// or reads the cache directly. Past the desync check, in.lsn is the
// trace index's LoadSeq, so training reads the load's LoadsBefore as
// in.lsn-1.
func (c *Core) renameLoadFnF(in *inst) {
	c.lsnRename++
	in.lsn = c.lsnRename
	if want := c.tr.LoadSeq(in.idx); in.lsn != want {
		c.fail(&SimError{
			Kind: ErrDesync, Idx: in.idx, PC: in.e.PC, Disasm: in.d.instr.String(),
			Msg: fmt.Sprintf("LSN desync: renamed load got %d, trace says %d", in.lsn, want),
		})
	}
	d := in.d.dest
	if ssn, ok := c.pendingFwd.take(in.lsn); ok {
		if se := c.srb.get(ssn); se != nil && d != isa.NoReg {
			in.ssnByp = ssn
			in.predIdx = se.idx
			c.setupCloak(in, d, se)
			return
		}
	}
	c.setupDirectLoad(in, d)
}

// trainFnFAfterReexec applies the FnF training rule after a forced
// re-execution: the actual colliding store (identified through the
// T-SSBF) learns this load as its consumer; a wrong forwarder loses
// confidence.
func (c *Core) trainFnFAfterReexec(in *inst) {
	if in.ssnByp > 0 {
		// The forwarding store picked the wrong consumer.
		st := &c.tr.Entries[in.predIdx]
		c.sft.TrainWrong(st.PC, in.lsn-1-c.tr.LoadsBefore(in.predIdx))
		c.stats.SDPWrites++
	}
	c.trainFnFCollider(in)
}

// trainFnFCollider teaches the actual colliding store (if identifiable
// and within range) to forward to this load next time.
func (c *Core) trainFnFCollider(in *inst) {
	if !in.tssbfMatch || in.tssbfSSN <= 0 {
		return
	}
	idx := c.tr.EntryBySeq(in.tssbfSSN)
	if idx < 0 {
		return
	}
	st := &c.tr.Entries[idx]
	dist := in.lsn - 1 - c.tr.LoadsBefore(idx)
	if dist < 0 || dist > c.cfg.MaxDist() {
		return
	}
	c.sft.TrainWrong(st.PC, dist)
	c.stats.SDPWrites++
}

// trainFnFNoReexec rewards a correct forwarding.
func (c *Core) trainFnFNoReexec(in *inst) {
	if in.ssnByp == 0 {
		return
	}
	st := &c.tr.Entries[in.predIdx]
	dist := in.lsn - 1 - c.tr.LoadsBefore(in.predIdx)
	c.stats.SDPWrites++
	if in.tssbfSSN == in.ssnByp {
		c.sft.TrainCorrect(st.PC, dist)
		return
	}
	c.sft.TrainWrong(st.PC, dist)
}
