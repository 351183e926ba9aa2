package main

import (
	"context"
	"fmt"
	"time"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/emu"
	"dmdp/internal/trace"
)

// detail is full detailed single-core simulation on one worker: each
// proxy's trace is built once per setup pass, then every round simulates
// it under DMDP and NoSQ. The proxies span the core's regimes: gcc is
// rename/issue-bound, hmmer squashes the most uops, mcf chases pointers
// through DRAM and lbm streams store misses.
type detail struct {
	budget int64
	seed   int64
	traces []*trace.Trace

	// Traced-pass accumulators.
	asm, emu, analyze     time.Duration
	setupPasses, emuInstr int64
	runs                  coreAcc
}

func newDetail(b *bench) *detail {
	budget := int64(500_000)
	if b.opt.tiny {
		budget = 20_000
	}
	return &detail{budget: budget, seed: b.opt.seed}
}

// setupsUpFront is 5: a pass takes well under a second, and setup_s is
// the median pass.
func (d *detail) setupsUpFront() int { return 5 }
func (d *detail) close()             {}

func (d *detail) setup(b *bench, tr *tracer, parent int) error {
	d.traces = nil // let the previous pass's traces go before building new ones
	traces := make([]*trace.Trace, len(detailProxies))
	for i, name := range detailProxies {
		spec, err := heldOut(name, d.seed)
		if err != nil {
			return err
		}
		op := b.nextOp()
		id := tr.begin("asm.program", parent, op)
		prog, err := spec.Program()
		d.asm += tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("emu.run", parent, op)
		t, err := emu.RunCtx(context.Background(), prog, d.budget)
		d.emu += tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if tr != nil {
			// Analyze is idempotent: running it again on the built trace
			// measures the share of emu.RunCtx it accounts for.
			id = tr.begin("trace.analyze", parent, op)
			t.Analyze()
			d.analyze += tr.end(id)
			d.emuInstr += int64(len(t.Entries))
		}
		traces[i] = t
	}
	if tr != nil {
		d.setupPasses++
	}
	d.traces = traces
	return nil
}

func (d *detail) round(b *bench, tr *tracer, parent int) error {
	for i, name := range detailProxies {
		for _, model := range detailModels {
			key := name + "/" + model.String()
			var st *core.Stats
			var dNew, dRun time.Duration
			var alloc float64
			var err error
			b.measure(tr, parent, key, func() {
				st, dNew, dRun, alloc, err = simulate(tr, parent, b.nextOp(), config.Default(model), d.traces[i])
			})
			if err == nil {
				err = checkFull(st, d.budget)
			}
			if err == nil {
				err = b.led.output(key, st.MarshalCanonical())
			}
			b.led.op("detail "+key, err)
			if err == nil && tr != nil {
				d.runs.add(coreRateName(name, model.String()), st, dNew, dRun, alloc)
			}
		}
	}
	if tr != nil {
		d.runs.passes++
	}
	return nil
}

// simulate builds a core over t and runs it, timing both calls and the
// heap allocated in between.
func simulate(tr *tracer, parent, op int, cfg config.Config, t *trace.Trace) (st *core.Stats, dNew, dRun time.Duration, alloc float64, err error) {
	before := readRuntime()
	id := tr.begin("core.new", parent, op)
	c, err := core.New(cfg, t)
	dNew = tr.end(id)
	if err != nil {
		return nil, dNew, 0, 0, err
	}
	id = tr.begin("core.run", parent, op)
	st, err = c.Run()
	dRun = tr.end(id)
	if tr != nil {
		alloc = readRuntime().allocBytes - before.allocBytes
	}
	return st, dNew, dRun, alloc, err
}

// checkFull is the output check of a full run: every budgeted
// instruction retired, and the retire-time oracle checked each one.
func checkFull(st *core.Stats, budget int64) error {
	if st.Instructions < budget {
		return fmt.Errorf("retired %d of %d instructions", st.Instructions, budget)
	}
	if st.OracleChecks != st.Instructions {
		return fmt.Errorf("oracle checked %d of %d retired instructions", st.OracleChecks, st.Instructions)
	}
	return nil
}

func (d *detail) layers(m map[string]float64) {
	if d.setupPasses > 0 {
		n := float64(d.setupPasses)
		m["asm.program_ms"] = d.asm.Seconds() * 1e3 / n
		m["emu.minst_per_s"] = ratio(float64(d.emuInstr)/1e6, (d.emu - d.analyze).Seconds())
		m["trace.analyze_minst_per_s"] = ratio(float64(d.emuInstr)/1e6, d.analyze.Seconds())
	}
	d.runs.layers(m, true, true)
}

// coreAcc accumulates core measurements over traced runs.
type coreAcc struct {
	runs, passes     int64
	newNS, runNS     int64
	cycles, uops, sq int64
	allocBytes       float64
	// pairInstr and pairNS are keyed by core.minst_per_s.* metric name.
	pairInstr, pairNS map[string]int64
}

// add records one run. rate names the core.minst_per_s.* metric the run
// counts toward, or is empty.
func (a *coreAcc) add(rate string, st *core.Stats, dNew, dRun time.Duration, alloc float64) {
	if a.pairInstr == nil {
		a.pairInstr, a.pairNS = make(map[string]int64), make(map[string]int64)
	}
	a.runs++
	a.newNS += dNew.Nanoseconds()
	a.runNS += dRun.Nanoseconds()
	a.cycles += st.Cycles
	a.uops += st.Uops
	a.sq += st.SquashedUops
	a.allocBytes += alloc
	if rate != "" {
		a.pairInstr[rate] += st.Instructions
		a.pairNS[rate] += dRun.Nanoseconds()
	}
}

// layers writes the core.* metrics. core.cycles and core.uops are the
// simulated totals of one pass (traced passes repeat them exactly).
// core.new_ms and core.alloc_mib_per_run are written only where New is
// timed and runs execute one at a time.
func (a *coreAcc) layers(m map[string]float64, withNew, withAlloc bool) {
	if a.runs == 0 || a.passes == 0 {
		return
	}
	for name, instr := range a.pairInstr {
		m[name] = ratio(float64(instr)/1e6, float64(a.pairNS[name])/1e9)
	}
	m["core.ns_per_cycle"] = ratio(float64(a.runNS), float64(a.cycles))
	m["core.ns_per_uop"] = ratio(float64(a.runNS), float64(a.uops))
	m["core.squashed_frac"] = ratio(float64(a.sq), float64(a.uops))
	m["core.cycles"] = float64(a.cycles / a.passes)
	m["core.uops"] = float64(a.uops / a.passes)
	if withNew {
		m["core.new_ms"] = float64(a.newNS) / float64(a.runs) / 1e6
	}
	if withAlloc {
		m["core.alloc_mib_per_run"] = a.allocBytes / float64(a.runs) / mib
	}
}
